"""Dense small-matrix numerics: finite differences and a damped Newton solver.

Everything downstream differentiates along curves with the central-difference
helpers here, so the step-size convention (cube root of machine epsilon,
scaled by 1 + the norm of the expansion point) lives in exactly one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EvaluationError, NoConvergence,
                     SingularJacobian)

# cube root of machine epsilon, ~6.06e-6: balances truncation vs roundoff
# for central differences
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))

COND_LIMIT = 1e14
MAX_HALVINGS = 30


@dataclass(frozen=True)
class Tolerances:
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if not self.newton_tol > 0:
            raise ValueError("tolerances must be positive")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


DEFAULT_TOL = Tolerances()


def _as_vec(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def fd_directional(f, x, v):
    """Central difference (f(x+hv) - f(x-hv)) / 2h, h scaled by 1+||x||."""
    x = _as_vec(x)
    v = _as_vec(v)
    h = DEFAULT_FD_STEP * (1.0 + np.linalg.norm(x))
    fp = float(f(x + h * v))
    fm = float(f(x - h * v))
    if not (np.isfinite(fp) and np.isfinite(fm)):
        raise EvaluationError("non-finite function value near %s" % x, point=x)
    return (fp - fm) / (2.0 * h)


def fd_gradient(f, x):
    x = _as_vec(x)
    n = x.size
    g = np.empty(n)
    eye = np.eye(n)
    for i in range(n):
        g[i] = fd_directional(f, x, eye[i])
    return g


def fd_curve(c):
    """Derivative at t=0 of a vector-valued curve c(t)."""
    cp = np.asarray(c(DEFAULT_FD_STEP), dtype=float)
    cm = np.asarray(c(-DEFAULT_FD_STEP), dtype=float)
    out = (cp - cm) / (2.0 * DEFAULT_FD_STEP)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("non-finite curve value", point=None)
    return out


def fd_curve_columns(f, n):
    """Jacobian at 0 of f on R^n, column i = fd_curve of t -> f(t e_i);
    fd_jacobian is left to Newton."""
    return np.column_stack([fd_curve(lambda t, e=e: f(t * e))
                            for e in np.eye(n)])


def fd_jacobian(F, x):
    """Jacobian of a vector map, column by column."""
    x = _as_vec(x)
    n = x.size
    h = DEFAULT_FD_STEP * (1.0 + np.linalg.norm(x))
    cols = []
    eye = np.eye(n)
    for i in range(n):
        fp = _as_vec(F(x + h * eye[i]))
        fm = _as_vec(F(x - h * eye[i]))
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def _trial(F, x):
    """F(x) and its inf-norm, inf where F leaves its domain or overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            r = _as_vec(F(x))
            rnorm = float(np.linalg.norm(r, np.inf))
    except (DomainError, EvaluationError, FloatingPointError):
        return None, np.inf
    return r, rnorm if np.isfinite(rnorm) else np.inf


def newton_solve(F, x0, tol: Tolerances = DEFAULT_TOL):
    """Damped Newton iteration for F(x) = 0.

    The Jacobian at x0 is built and checked before the first convergence
    test, so a degenerate problem fails even when x0 solves it.  Steps are
    halved (at most 30 times) until the residual norm decreases; a trial
    point outside F's domain or with an overflowing residual counts as an
    infinite one.  Raises SingularJacobian when the Jacobian condition
    estimate exceeds 1e14, NoConvergence when halvings or iterations run out.
    """
    scalar = np.isscalar(x0) or np.ndim(x0) == 0
    x = _as_vec(x0).copy()
    r = _as_vec(F(x))
    rnorm = float(np.linalg.norm(r, np.inf))
    for _ in range(tol.newton_max_iter):
        J = fd_jacobian(F, x)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > COND_LIMIT:
            raise SingularJacobian("Jacobian condition estimate > %.1e" % COND_LIMIT)
        if rnorm <= tol.newton_tol:  # only when x0 already solves F
            break
        dx = np.linalg.solve(J, -r)
        for halvings in range(MAX_HALVINGS + 1):
            x_new = x + 0.5 ** halvings * dx
            r_new, rn_new = _trial(F, x_new)
            if rn_new < rnorm:
                break
        else:
            raise NoConvergence("line search failed after %d halvings "
                                "(residual %.3e)" % (MAX_HALVINGS, rnorm),
                                residual_norm=rnorm)
        x, r, rnorm = x_new, r_new, rn_new
        if rnorm <= tol.newton_tol:
            break
    if rnorm <= tol.newton_tol:
        return float(x[0]) if scalar else x
    raise NoConvergence("no convergence after %d iterations (residual %.3e)"
                        % (tol.newton_max_iter, rnorm), residual_norm=rnorm)
