"""Discrete variational mechanics on groupoids and matched-pair groups.

The primitive object is the two-arrow junction residual, two mat-vecs
left_lift(g_k)^T dL(g_k) - right_lift(g_{k+1})^T dL(g_{k+1}): an incoming half
at g_k and an outgoing half at g_{k+1}.  A step solves
incoming - outgoing(chart(z)) = 0 with the incoming half fixed.  A matched
pair of groups is a matched-pair groupoid over a point and steps through the
same ``del_step``; its momentum forms (the paper's transported-and-forced
momenta and their degenerate reductions) are references, evaluated only at
solved junctions.
Longer trajectories are solved junction by junction in one loop,
``solve_trajectory``, and every solve is cross-checked against the
brute-force variational derivative of the action sum.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .algebroid import (
    AlgebroidVector,
    act_on_fiber_g,
    act_on_fiber_h,
    dagger_on_g,
    dagger_on_h,
    left_invariant,
    right_invariant,
)
from .errors import (DomainError, EvaluationError, NoConvergence,
                     NotComposable, TagError)
from .groupoids import (
    COMPOSE_TOL,
    ActionGroupoid,
    GroupGroupoid,
    Groupoid,
    MatchedPairGroupoid,
)
from .matched_group import MatchedPairGroup
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    fd_gradient,
    newton_solve,
)
# unused; bench/test_bench.py::test_install_and_uninstall_wrappers wraps it
from .numerics import fd_jacobian  # noqa: F401


class DiscreteLagrangian:
    """Real function on the arrows of a groupoid, with an optional closed
    gradient; falls back to finite differences."""

    def __init__(self, evaluate, gradient=None, name="L"):
        self.evaluate = evaluate
        self._gradient = gradient
        self.name = name

    def __call__(self, x):
        return float(self.evaluate(np.asarray(x, dtype=float)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return fd_gradient(self.evaluate, x)


class Trajectory:
    """Ordered arrows with adjacent sources and targets glued to 1e-9."""

    def __init__(self, desc: Groupoid, arrows, residual_norms=None):
        self.desc = desc
        self.arrows = [desc.check(a) for a in arrows]
        for a, b in zip(self.arrows, self.arrows[1:]):
            if desc.composability_gap(a, b) > COMPOSE_TOL:
                raise NotComposable(desc.beta(a), desc.alpha(b))
        self.residual_norms = residual_norms
        # the variational oracle's maximum, set by solve_trajectory
        self.oracle = None

    def __len__(self):
        return len(self.arrows)

    def __iter__(self):
        return iter(self.arrows)


def action_sum(L: DiscreteLagrangian, traj: Trajectory):
    return float(sum(L(a) for a in traj.arrows))


# ---------------------------------------------------------------------------
# junction residuals
# ---------------------------------------------------------------------------

def del_residual(desc: Groupoid, L: DiscreteLagrangian, gk, gk1):
    """Vector of <dL, left E_i at g_k> - <dL, right E_i at g_{k+1}> over the
    fiber-chart basis at the junction; zero iff the discrete Euler-Lagrange
    condition holds there."""
    gk = desc.check(gk)
    gk1 = desc.check(gk1)
    if desc.composability_gap(gk, gk1) > COMPOSE_TOL:
        raise NotComposable(desc.beta(gk), desc.alpha(gk1))
    return (desc.left_lift(gk).T @ L.gradient(gk)
            - desc.right_lift(gk1).T @ L.gradient(gk1))


def del_residual_matched(md: MatchedPairGroupoid, L: DiscreteLagrangian,
                         xk, xk1):
    """Junction residual of a matched-pair groupoid assembled term by term
    from the induced actions and the single-factor invariant fields.

    For a fiber direction (X, Y) at the junction the six contributions are
    the left field of h_k |> X at g_k, minus the right field of X at
    g_{k+1}, plus Y^dagger(g_{k+1}), plus X^dagger(h_k), plus the left field
    of Y at h_k, minus the right field of Y <| g_{k+1} at h_{k+1}.
    """
    xk = md.check(xk)
    xk1 = md.check(xk1)
    if md.composability_gap(xk, xk1) > COMPOSE_TOL:
        raise NotComposable(md.beta(xk), md.alpha(xk1))
    gk, hk = md.split(xk)
    gk1, hk1 = md.split(xk1)
    b = md.beta(xk)
    nG = md.Gd.arrow_dim
    dk = L.gradient(xk)
    dk1 = L.gradient(xk1)
    d1k, d2k = dk[:nG], dk[nG:]
    d1k1, d2k1 = dk1[:nG], dk1[nG:]
    out = np.empty(md.fiber_dim)
    for i, e in enumerate(np.eye(md.Gd.fiber_dim)):
        X = AlgebroidVector(md.Gd, b, e)
        out[i] = float(
            d1k @ left_invariant(md.Gd, act_on_fiber_g(md, hk, X), gk)
            - d1k1 @ right_invariant(md.Gd, X, gk1)
            + d2k @ dagger_on_h(md, X, hk))
    for j, e in enumerate(np.eye(md.Hd.fiber_dim)):
        Y = AlgebroidVector(md.Hd, b, e)
        out[md.Gd.fiber_dim + j] = float(
            d1k1 @ dagger_on_g(md, Y, gk1)
            + d2k @ left_invariant(md.Hd, Y, hk)
            - d2k1 @ right_invariant(md.Hd, act_on_fiber_h(md, Y, gk1), hk1))
    return out


# ---------------------------------------------------------------------------
# matched-pair groups: momentum form of the residual
# ---------------------------------------------------------------------------

MATCHED_GROUP_FORMS = ("full", "right-trivial", "left-trivial", "both-trivial")


def matched_group_momenta(mp: MatchedPairGroup, L: DiscreteLagrangian, u):
    """(mu, nu): the right-translated partial differentials of L at u."""
    return _momenta(mp, u, L.gradient(u))


def _momenta(mp, u, d):
    g, h = mp.split(u)
    return (mp.G.lift_matrix("right", g).T @ d[: mp.G.coord_dim],
            mp.H.lift_matrix("right", h).T @ d[mp.G.coord_dim:])


def del_residual_matched_group(mp: MatchedPairGroup, L: DiscreteLagrangian,
                               uk, uk1, form="full"):
    """Momentum form of the matched-group junction residual.

    The xi block is the transported-and-forced momentum mismatch in g*, the
    eta block the same in h*:

        xi:  (Ad*_{g_k^{-1}} mu_k) <|* h_k + a*_{h_k} d2L_k - mu_{k+1}
        eta: Ad*_{h_k^{-1}} nu_k - b*_{g_{k+1}} d1L_{k+1}
             - g_{k+1} |>* nu_{k+1}

    The degenerate forms drop the terms that vanish when one or both of the
    mutual actions are trivial.  None of these is solved: they are
    references, evaluated at the junctions ``del_step`` has solved, where the
    two-mat-vec ``del_residual(mp, ...)`` it solves vanishes.  The full form
    of ``mp.generic()`` is the same residual through the finite-difference
    induced actions.
    """
    return (_momentum_half(mp, L, uk, form, "left")
            - _momentum_half(mp, L, uk1, form, "right"))


def _momentum_half(mp, L, u, form, side):
    """The u_k ("left") or u_{k+1} ("right") half of the momentum residual,
    from one L.gradient call at u."""
    _require_form(form)
    u = mp.check(u)
    # h |> g enters via act_on_fiber_g_matrix, dagger_on_g_matrix; h <| g
    # via dagger_on_h_matrix, act_on_fiber_h_matrix
    acts_on_g = form in ("full", "right-trivial")
    acts_on_h = form in ("full", "left-trivial")
    g, h = mp.split(u)
    d = L.gradient(u)
    mu, nu = _momenta(mp, u, d)
    if side == "left":
        xi = mp.G.coAd(g, mu)
        if acts_on_g:
            xi = mp.act_on_fiber_g_matrix(h).T @ xi
        if acts_on_h:
            xi = xi + mp.dagger_on_h_matrix(h).T @ d[mp.G.coord_dim:]
        return np.concatenate([xi, mp.H.coAd(h, nu)])
    eta = mp.act_on_fiber_h_matrix(g).T @ nu if acts_on_h else nu
    if acts_on_g:
        # the groupoid's dagger on g flows y_t^{-1} |> g, hence the sign
        eta = eta - mp.dagger_on_g_matrix(g).T @ d[: mp.G.coord_dim]
    return np.concatenate([mu, eta])


def _require_form(form):
    if form not in MATCHED_GROUP_FORMS:
        raise TagError("unknown residual form %r" % (form,))


# a second name of del_residual, kept because bench/tracer.py TARGETS names it
_matched_group_fields_residual = del_residual


# ---------------------------------------------------------------------------
# implicit stepping
# ---------------------------------------------------------------------------

@contextmanager
def solver_failure(what):
    """Run a block in which leaving a chart or overflowing anywhere is a
    solver failure: it raises NoConvergence instead."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (DomainError, EvaluationError, FloatingPointError) as exc:
        raise NoConvergence("%s failed: %s" % (what, exc))


def del_step(desc: Groupoid, L: DiscreteLagrangian, gk, guess=None,
             tol: Tolerances = DEFAULT_TOL):
    """Solve the junction residual for the next arrow in the source fiber at
    beta(g_k): a Newton solve of incoming - outgoing(fiber_elem(b, z)) = 0
    with the incoming half evaluated once.  The warm start transports the
    previous arrow to the new fiber (constant-velocity guess) unless an
    explicit guess arrow is given."""
    gk = desc.check(gk)
    b = desc.beta(gk)
    z0 = desc.arrow_coords(gk if guess is None else desc.check(guess))

    def outgoing(z):
        g = desc.fiber_elem(b, z)
        return desc.right_lift(g).T @ L.gradient(g)

    with solver_failure("junction solve"):
        incoming = desc.left_lift(gk).T @ L.gradient(gk)
        z = newton_solve(lambda z: incoming - outgoing(z), z0, tol)
        return desc.fiber_elem(b, np.atleast_1d(z))


def solve_trajectory(desc: Groupoid, L: DiscreteLagrangian, g1, n_steps,
                     tol: Tolerances = DEFAULT_TOL):
    """March the junction solve forward from g1 for n_steps arrows total;
    the result is oracle-validated before being returned."""
    arrows = [desc.check(g1)]
    norms = []
    for _ in range(n_steps - 1):
        nxt = del_step(desc, L, arrows[-1], tol=tol)
        norms.append(float(np.linalg.norm(
            del_residual(desc, L, arrows[-1], nxt), np.inf)))
        arrows.append(nxt)
    traj = Trajectory(desc, arrows, residual_norms=norms)
    traj.oracle = variational_oracle(desc, L, traj)
    if traj.oracle > 1e-6:
        raise NoConvergence("solved trajectory fails the variational check "
                            "(%.3e)" % traj.oracle, residual_norm=traj.oracle)
    return traj


# a matched pair of groups is a groupoid over a point: it steps by del_step
del_step_matched_group = del_step


def solve_matched_group_trajectory(mp, L, u1, n_steps, form="full",
                                   tol: Tolerances = DEFAULT_TOL):
    """March ``del_step`` from u1 for n_steps arrows; the returned norms are
    those of the reference momentum form ``form``."""
    _require_form(form)
    arrows = [mp.check(u1)]
    norms = []
    for _ in range(n_steps - 1):
        nxt = del_step(mp, L, arrows[-1], tol=tol)
        with solver_failure("reference residual"):
            r = del_residual_matched_group(mp, L, arrows[-1], nxt, form=form)
        norms.append(float(np.linalg.norm(r, np.inf)))
        arrows.append(nxt)
    return arrows, norms


# ---------------------------------------------------------------------------
# momentum evolution
# ---------------------------------------------------------------------------

def momentum_evolution(desc, L: DiscreteLagrangian, traj: Trajectory):
    """Momenta mu_k along a trajectory and the maximum defect of the
    transport recursion mu_{k+1} = Ad*-transport of mu_k (+ forcing on an
    action groupoid)."""
    # the group part of an arrow starts at `offset`
    if isinstance(desc, GroupGroupoid):
        offset, forcing = 0, lambda xk, xk1: 0.0
    elif isinstance(desc, ActionGroupoid):
        offset = desc.M.dim
        forcing = lambda xk, xk1: _orbit_forcing(desc, L, xk, xk1)
    else:
        raise TagError("momentum evolution needs a group or action-groupoid "
                       "descriptor, got %s" % desc.name)
    G, arrows = desc.G, traj.arrows
    mus = [G.lift_matrix("right", x[offset:]).T @ L.gradient(x)[offset:]
           for x in arrows]
    defect = 0.0
    for k in range(len(mus) - 1):
        gap = (mus[k + 1] - G.coAd(arrows[k][offset:], mus[k])
               - forcing(arrows[k], arrows[k + 1]))
        defect = max(defect, float(np.max(np.abs(gap))))
    return mus, defect


def _orbit_forcing(desc: ActionGroupoid, L, xk, xk1):
    """Differential at the identity of xi -> L(m_{k+1} . exp(xi), g_{k+1}):
    the position-dependence of L fed back through the orbit map."""
    m1 = desc.beta(xk)
    _, g1 = desc.split(xk1)

    def f(xi):
        m = np.atleast_1d(np.asarray(desc.action(m1, desc.G.exp(xi)),
                                     dtype=float))
        return L(np.concatenate([m, g1]))

    return fd_gradient(f, np.zeros(desc.G.dim))


# ---------------------------------------------------------------------------
# brute-force variational oracle
# ---------------------------------------------------------------------------

def oracle_directional(desc: Groupoid, L: DiscreteLagrangian, gk, gk1,
                       X: AlgebroidVector):
    """Directional derivative of L(g_k c(t)) + L(c(t)^{-1} g_{k+1}) at t = 0
    for the fiber curve c tangent to X: the product-preserving variation of
    the two arrows meeting at the junction."""
    from .numerics import fd_directional

    b = desc.beta(gk)

    def f(t):
        c = desc.fiber_elem(b, float(t[0]) * X.z)
        return L(desc.mul(gk, c)) + L(desc.mul(desc.inv(c), gk1))

    return fd_directional(f, np.zeros(1), np.ones(1))


def variational_oracle(desc: Groupoid, L: DiscreteLagrangian,
                       traj: Trajectory):
    """Max absolute directional derivative of the action sum over
    product-preserving variations at the interior junctions.  A discrete
    Euler-Lagrange solution must push this below 1e-6."""
    worst = 0.0
    for k in range(len(traj.arrows) - 1):
        gk, gk1 = traj.arrows[k], traj.arrows[k + 1]
        b = desc.beta(gk)
        for e in np.eye(desc.fiber_dim):
            X = AlgebroidVector(desc, b, e)
            worst = max(worst, abs(oracle_directional(desc, L, gk, gk1, X)))
    return worst
