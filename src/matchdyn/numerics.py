"""Dense small-matrix numerics: finite differences and a quasi-Newton solver.

Every central difference downstream is one call to ``fd_stencil``: the
step-size convention (cube root of machine epsilon, scaled by 1 + the norm
of the expansion point) and the finiteness rule live there.  It hands the
function the whole stencil at once, so a function that takes a stack of
points evaluates it in one pass; ``fd_columns`` evaluates it one point at a
time, and the gradient and curve helpers name its usual batches.  The
solver's Jacobian, ``fd_jacobian``, is the one forward-difference loop: n
evaluations of F from the F(x) the solver already holds, with the same step
and finiteness rule.  The solver runs at most MAX_ITER passes of one such
Jacobian and its Broyden secant updates (Dennis & Schnabel 1983, ch. 8), and
returns the root with the residual it stopped at.  Only a fresh Jacobian
takes a condition estimate; a Broyden trial is one linear solve, guarded by
the rule that its step must halve the residual.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (DomainError, EvaluationError, NoConvergence,
                     SingularJacobian)

# cube root of machine epsilon, ~6.06e-6: balances truncation vs roundoff
# for central differences; for the forward-difference Jacobian of a residual
# whose noise is about eps^(2/3) (itself a central difference), it is also
# the optimal forward step sqrt(noise) (Dennis & Schnabel 1983, sec. 5.4)
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))

COND_LIMIT = 1e14
DEFAULT_TOL = 1e-10
MAX_ITER = 50
MAX_HALVINGS = 30


def _as_vec(x):
    return np.atleast_1d(np.asarray(x, dtype=float))


def transposed_matvec(A, v):
    """A^T v, or that of each matrix and vector of two stacks, leading axes
    first, in one ``np.vecmat``: each item has the bits of ``A.T @ v``
    alone, which np.einsum or a sum over the rows would not keep."""
    return np.vecmat(v, A)


def fd_stencil(F, x, V):
    """Central differences (F(x + h v) - F(x - h v)) / 2h for each column v
    of V, with one step h scaled by 1 + ||x||, from one call of F on the
    whole stencil: the (2k, n) points x + h v, then x - h v, to values with
    the stencil on their last axis and any leading axes, which the k
    differences keep.  A non-finite difference is an EvaluationError naming
    x."""
    x = _as_vec(x)
    h = DEFAULT_FD_STEP * (1.0 + math.sqrt(x @ x))
    # in C order: a point is a contiguous row, as a loop over V.T gives it
    steps = np.ascontiguousarray(h * V.T)
    k = len(steps)
    values = np.asarray(F(np.concatenate([x + steps, x - steps])),
                        dtype=float)
    out = values[..., :k] - values[..., k:]
    out /= 2.0 * h
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite function value near %s" % x, point=x)
    return out


def fd_columns(F, x, V):
    """``fd_stencil`` of a scalar or vector F evaluated one point at a
    time: the k columns of the derivative of F at x, or a length-k vector
    when F is scalar."""
    # in C order, as the columns of a matrix that BLAS reads in its own
    # order: the layout of a matrix picks the summation order of a product
    return fd_stencil(lambda points: np.ascontiguousarray(np.array(
        [F(p) for p in points], dtype=float).T), x, V)


def fd_gradient(f, x):
    return fd_columns(f, x, np.eye(np.size(x)))


def fd_curve(c):
    """Derivative at t=0 of a curve c(t)."""
    return fd_columns(lambda t: c(t[0]), np.zeros(1), np.ones((1, 1)))[..., 0]


def fd_curve_columns(f, n):
    """Jacobian at 0 of f on R^n."""
    return np.atleast_2d(fd_columns(f, np.zeros(n), np.eye(n)))


def fd_jacobian(F, x, fx):
    """Forward-difference Jacobian of F at x from fx = F(x): column j is
    (F(x + h e_j) - fx) / h, n evaluations of F with fd_columns' step h,
    one row when F is scalar (Dennis & Schnabel 1983, Algorithm A5.4.1).
    A non-finite value is an EvaluationError naming x."""
    x = _as_vec(x)
    fx = np.asarray(fx, dtype=float)
    h = DEFAULT_FD_STEP * (1.0 + math.sqrt(x @ x))
    diffs = [np.asarray(F(x + s), dtype=float) - fx
             for s in h * np.eye(x.size)]
    out = np.atleast_2d(np.column_stack(diffs) if fx.ndim else np.array(diffs))
    out /= h
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite function value near %s" % x, point=x)
    return out


def _trial(F, x):
    """F(x) and its inf-norm, inf where F leaves its domain or overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            r = _as_vec(F(x))
            rnorm = float(np.linalg.norm(r, np.inf))
    except (DomainError, EvaluationError, FloatingPointError,
            OverflowError):
        return None, np.inf
    return r, rnorm if np.isfinite(rnorm) else np.inf


def _failure(cls, what, rnorm, cond):
    return cls("%s (residual %.3e, condition estimate %.3e)"
               % (what, rnorm, cond), residual_norm=rnorm, cond=cond)


def _step(J, r):
    """The full step -J^-1 r, or None when J is not finite or gives no
    finite solution."""
    if not np.isfinite(J).all():
        return None
    try:
        dx = np.linalg.solve(J, -r)
    except np.linalg.LinAlgError:
        return None
    return dx if np.isfinite(dx).all() else None


def newton_solve(F, x0, tol=DEFAULT_TOL):
    """Quasi-Newton solve of F(x) = 0; returns (x, F(x)) once the inf-norm
    of F(x) is at most tol.

    Each of at most MAX_ITER passes builds the forward-difference Jacobian J
    at the current point from the residual r = F(x) it holds (n more
    evaluations of F) and raises SingularJacobian when its condition
    estimate is above 1e14, before the convergence test, so a degenerate
    problem fails even when x0 solves it.  The Newton step on J is halved,
    at most 30 times, until the residual norm decreases; a trial point
    outside F's domain or with an overflowing residual counts as infinite.
    After every accepted step s, Broyden's update J += outer(F(x + s) - F(x)
    - J s, s) / (s . s) gives the next full step, one linear solve with no
    condition estimate; it is kept while it halves the residual norm, so an
    ill-conditioned update, whose step fails that test, ends the pass like
    a J that is not finite or gives no finite solution, and the next pass
    starts.  NoConvergence (a non-finite F(x0), a Jacobian stencil point
    such a trial would reject, or the halvings or the passes ran out) and
    SingularJacobian carry the last residual norm and the last fresh
    Jacobian's condition estimate.
    """
    x = _as_vec(x0).copy()
    r = _as_vec(F(x))
    rnorm = float(np.linalg.norm(r, np.inf))
    if not np.isfinite(rnorm):
        raise _failure(NoConvergence, "residual not finite at the start",
                       rnorm, np.inf)
    for _ in range(MAX_ITER):
        try:
            J = fd_jacobian(F, x, r)
        except (DomainError, EvaluationError, FloatingPointError,
                OverflowError) as exc:
            raise _failure(NoConvergence, "non-finite Jacobian: %s: %s"
                           % (type(exc).__name__, exc), rnorm, np.inf)
        cond = float(np.linalg.cond(J))
        if cond > COND_LIMIT:
            raise _failure(SingularJacobian, "Jacobian condition estimate > "
                           "%.1e" % COND_LIMIT, rnorm, cond)
        if rnorm <= tol:
            return x, r
        dx = _step(J, r)
        if dx is None:  # the linear solve gave no finite step
            raise _failure(NoConvergence, "no finite Newton step", rnorm, cond)
        for halvings in range(MAX_HALVINGS + 1):
            x_new = x + 0.5 ** halvings * dx
            r_new, rn_new = _trial(F, x_new)
            if rn_new < rnorm:
                break
        else:
            raise _failure(NoConvergence, "line search failed after %d "
                           "halvings" % MAX_HALVINGS, rnorm, cond)
        while True:
            s = x_new - x
            with np.errstate(all="ignore"):  # _step rejects a non-finite J
                J = J + (r_new - r - J @ s)[:, None] * s / (s @ s)
            x, r, rnorm = x_new, r_new, rn_new
            if rnorm <= tol:
                return x, r
            dx = _step(J, r)
            if dx is None:
                break
            x_new = x + dx
            r_new, rn_new = _trial(F, x_new)
            if not rn_new <= 0.5 * rnorm:
                break
    raise _failure(NoConvergence, "no convergence after %d Jacobians"
                   % MAX_ITER, rnorm, cond)
