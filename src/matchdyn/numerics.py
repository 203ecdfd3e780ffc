"""Dense small-matrix numerics: finite differences and a quasi-Newton solver.

Everything downstream differentiates along curves with the central-difference
helpers here, so the step-size convention (cube root of machine epsilon,
scaled by 1 + the norm of the expansion point) lives in exactly one place.
The solver builds one finite-difference Jacobian per solve and carries it
along by Broyden's rank-one secant update (Dennis & Schnabel 1983, ch. 8),
rebuilding it only when an updated step stalls.  It takes one tolerance, on
the inf-norm of the residual, and returns the root together with the
residual it stopped at, so a caller never re-evaluates it.
"""
from __future__ import annotations

import numpy as np

from .errors import (DomainError, EvaluationError, NoConvergence,
                     SingularJacobian)

# cube root of machine epsilon, ~6.06e-6: balances truncation vs roundoff
# for central differences
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))

COND_LIMIT = 1e14
DEFAULT_TOL = 1e-10
MAX_ITER = 50
MAX_HALVINGS = 30


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


def _failure(cls, what, rnorm, cond):
    return cls("%s (residual %.3e, condition estimate %.3e)"
               % (what, rnorm, cond), residual_norm=rnorm, cond=cond)


def _fresh_jacobian(F, x, rnorm):
    """fd_jacobian at x and its condition estimate; SingularJacobian when
    that exceeds COND_LIMIT."""
    J = fd_jacobian(F, x)
    cond = float(np.linalg.cond(J)) if np.all(np.isfinite(J)) else np.inf
    if cond > COND_LIMIT:
        raise _failure(SingularJacobian, "Jacobian condition estimate > %.1e"
                       % COND_LIMIT, rnorm, cond)
    return J, cond


def _secant_step(F, J, x, r, rnorm):
    """The full step on an updated J and J's condition estimate, or None
    when J is unusable or the step fails to halve the residual norm."""
    cond = float(np.linalg.cond(J)) if np.all(np.isfinite(J)) else np.inf
    if cond > COND_LIMIT:
        return None
    try:
        dx = np.linalg.solve(J, -r)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(dx)):
        return None
    r_new, rn_new = _trial(F, x + dx)
    if not rn_new <= 0.5 * rnorm:
        return None
    return (x + dx, r_new, rn_new), cond


def newton_solve(F, x0, tol=DEFAULT_TOL):
    """Quasi-Newton iteration for F(x) = 0 over one finite-difference
    Jacobian; returns (x, F(x)) once the inf-norm of F(x) is at most tol.

    The Jacobian at x0 is built and checked before the first convergence
    test, so a degenerate problem fails even when x0 solves it.  Every
    accepted step s updates J by Broyden's rank-one secant rule,
    J += outer(F(x + s) - F(x) - J s, s) / (s . s), and the full step on the
    updated J is kept if it at least halves the residual norm.  Otherwise,
    or when the updated J is non-finite, has a condition estimate above 1e14
    or cannot be solved, J is rebuilt at the current point (as it is at x0)
    and the step is halved, at most 30 times, until the residual norm
    decreases; a trial point outside F's domain or with an overflowing
    residual counts as an infinite one.  Raises SingularJacobian when a
    freshly built Jacobian has a condition estimate above 1e14,
    NoConvergence when the halvings or the MAX_ITER iterations run out;
    both carry the last residual norm and condition estimate.
    """
    x = _as_vec(x0).copy()
    r = _as_vec(F(x))
    rnorm = float(np.linalg.norm(r, np.inf))
    J, cond = _fresh_jacobian(F, x, rnorm)
    for it in range(MAX_ITER):
        if rnorm <= tol:
            break
        # J has had a secant update from the second iteration on
        secant = _secant_step(F, J, x, r, rnorm) if it else None
        if secant is not None:
            (x_new, r_new, rn_new), cond = secant
        else:
            if it:
                J, cond = _fresh_jacobian(F, x, rnorm)
            dx = np.linalg.solve(J, -r)
            for halvings in range(MAX_HALVINGS + 1):
                x_new = x + 0.5 ** halvings * dx
                r_new, rn_new = _trial(F, x_new)
                if rn_new < rnorm:
                    break
            else:
                raise _failure(NoConvergence, "line search failed after %d "
                               "halvings" % MAX_HALVINGS, rnorm, cond)
        s = x_new - x
        # _secant_step refreshes a J that this makes non-finite
        with np.errstate(all="ignore"):
            J = J + np.outer(r_new - r - J @ s, s) / (s @ s)
        x, r, rnorm = x_new, r_new, rn_new
    if rnorm <= tol:
        return x, r
    raise _failure(NoConvergence, "no convergence after %d iterations"
                   % MAX_ITER, rnorm, cond)
