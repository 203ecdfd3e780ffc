"""Discrete variational mechanics on groupoids and matched-pair groups.

The primitive object is the junction residual, two mat-vecs
left_lift(g_k)^T dL(g_k) - right_lift(g_{k+1})^T dL(g_{k+1}), an incoming half
at g_k and an outgoing half at g_{k+1}; ``del_residuals`` pairs them along a
chain from one gradient per arrow.  A step solves
incoming - outgoing(chart(z)) = 0 with the incoming half fixed.  A matched
pair of groups is a matched-pair groupoid over a point and steps through the
same ``del_step``; its momentum form (the paper's transported-and-forced
momenta, which a pair with a trivial action reduces through its own identity
and zero blocks) is a reference at solved junctions that pairs the records
(dL, mu, nu) of adjacent arrows: each arrow's discrete Legendre transform,
from one ``L.gradient`` call by ``arrow_momenta``.
Trajectories are solved in one loop, ``march``, which keeps the residual each
``del_step`` stopped at; ``solve_trajectory`` checks it against the
variational oracle, the finite-difference gradient of each junction's action.
Where the descriptor's maps and L take stacks (the trivial groupoid and
``OrbitPair`` over the rotated plane, with the spring and its matched form)
the oracle is one stacked pass over the whole trajectory; otherwise it takes
one junction at a time, with the same bits.

The halves pair dL with the lift columns only
(``DiscreteLagrangian.pullback``): through a closed gradient, bit for bit as
``del_residual``, and otherwise by one central difference of L per column,
where the references take the ambient finite-difference gradient.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import (DomainError, EvaluationError, NoConvergence,
                     NotComposable, SolverFailure, TagError)
from .groupoids import COMPOSE_TOL, ActionGroupoid, GroupGroupoid, Groupoid
from .matched_group import MatchedPairGroup
from .numerics import (DEFAULT_TOL, fd_columns, fd_gradient, fd_stencil,
                       newton_solve)
# unused; bench/test_bench.py::test_install_and_uninstall_wrappers wraps it
from .numerics import fd_jacobian  # noqa: F401

# the bound of the variational oracle on a solved trajectory
ORACLE_TOL = 1e-6


class DiscreteLagrangian:
    """Real function on the arrows of a groupoid, with an optional closed
    gradient; falls back to finite differences.  With ``stacks``,
    ``evaluate`` also takes a stack of arrows, leading axes first, and
    returns their values at once, as it would one at a time."""

    def __init__(self, evaluate, gradient=None, name="L", stacks=False):
        self.evaluate = evaluate
        self._gradient = gradient
        self.name = name
        self.stacks = stacks

    def __call__(self, x):
        return float(self.evaluate(np.asarray(x, dtype=float)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return fd_gradient(self.evaluate, x)

    def pullback(self, x, lift):
        """lift^T dL(x) for a matrix of tangent vectors at x: the closed
        gradient paired with the columns, or else the central differences
        of L along them."""
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return lift.T @ self.gradient(x)
        return fd_columns(self.evaluate, x, lift)


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


# ---------------------------------------------------------------------------
# junction residuals
# ---------------------------------------------------------------------------

def del_residuals(desc: Groupoid, L: DiscreteLagrangian, traj: Trajectory):
    """<dL, left E_i at g_k> - <dL, right E_i at g_{k+1}> over the fiber-chart
    basis at every junction of the trajectory, whose arrows ``Trajectory``
    has checked, from one L.gradient per arrow; zero iff the discrete
    Euler-Lagrange condition holds there."""
    arrows = traj.arrows
    grads = [L.gradient(g) for g in arrows]
    return [desc.left_lift(gk).T @ d - desc.right_lift(gk1).T @ e
            for gk, gk1, d, e in zip(arrows, arrows[1:], grads, grads[1:])]


def del_residual(desc: Groupoid, L: DiscreteLagrangian, gk, gk1):
    """``del_residuals`` at the one junction of g_k and g_{k+1}."""
    return del_residuals(desc, L, Trajectory(desc, [gk, gk1]))[0]


# ---------------------------------------------------------------------------
# matched-pair groups: momentum form of the residual
# ---------------------------------------------------------------------------

def matched_group_momenta(mp: MatchedPairGroup, L: DiscreteLagrangian, u,
                          lift=None):
    """(d, mu, nu) of the arrow u: the gradient of L at u, from its one
    L.gradient call, and the right-translated partial differentials, the
    factor momenta.  Every momentum form reads this record of the arrow.
    The factor lifts are each group's own ``lift_matrix``, or ``lift(group,
    side, point)`` if given."""
    u = mp.check(u)
    d = L.gradient(u)
    g, h = mp.split(u)
    G, H, n = mp.G, mp.H, mp.G.coord_dim
    return (d, (lift or type(G).lift_matrix)(G, "right", g).T @ d[:n],
            (lift or type(H).lift_matrix)(H, "right", h).T @ d[n:])


def del_residual_matched_group(mp: MatchedPairGroup, L: DiscreteLagrangian,
                               uk, uk1):
    """Momentum form of the matched-group junction residual.

    The xi block is the transported-and-forced momentum mismatch in g*, the
    eta block the same in h*:

        xi:  (Ad*_{g_k^{-1}} mu_k) <|* h_k + a*_{h_k} d2L_k - mu_{k+1}
        eta: Ad*_{h_k^{-1}} nu_k - b*_{g_{k+1}} d1L_{k+1}
             - g_{k+1} |>* nu_{k+1}

    A pair with a trivial action reduces it through its own identity and
    zero blocks.  It is not solved: it is a reference, evaluated at the
    junctions ``del_step`` has solved, where the two-mat-vec
    ``del_residual(mp, ...)`` it solves vanishes.  The form of
    ``mp.generic()`` is the same residual through the finite-difference
    induced actions.  It is ``momentum_residuals`` at one junction.
    """
    momenta = [matched_group_momenta(mp, L, u) for u in (uk, uk1)]
    return momentum_residuals(mp, [uk, uk1], momenta)[0]


def _momentum_half(mp, u, momenta, side):
    """The u_k ("left") or u_{k+1} ("right") half of the momentum residual,
    from the arrow's record ``momenta`` = (d, mu, nu)."""
    # h |> g enters via A_g and D_g, h <| g via D_h and A_h: the blocks of
    # the induced-action pair on the fiber of this half
    g, h = mp.split(u)
    d, mu, nu = momenta
    if side == "left":
        A_g, D_h = mp.g_fiber_actions(h)
        xi = A_g.T @ mp.G.coAd(g, mu) + D_h.T @ d[mp.G.coord_dim:]
        return np.concatenate([xi, mp.H.coAd(h, nu)])
    D_g, A_h = mp.h_fiber_actions(g)
    # the groupoid's dagger on g flows y_t^{-1} |> g, hence the sign
    return np.concatenate([mu, A_h.T @ nu - D_g.T @ d[: mp.G.coord_dim]])


# second names of del_residual, kept because bench/tracer.py TARGETS names
# them; a matched-pair groupoid's six-term residual is del_residual in block
# order (MatchedPairGroupoid.left_lift / right_lift)
_matched_group_fields_residual = del_residual
del_residual_matched = del_residual


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
    except (DomainError, EvaluationError, FloatingPointError,
            OverflowError) as exc:
        raise NoConvergence("%s failed: %s" % (what, exc))


@contextmanager
def at_step(k):
    """Name arrow k, the one being solved for, in a solver failure raised
    in the block."""
    try:
        yield
    except SolverFailure as exc:
        exc.step = k
        raise


def del_step(desc: Groupoid, L: DiscreteLagrangian, gk, tol=DEFAULT_TOL):
    """Solve the junction residual for the next arrow in the source fiber at
    beta(g_k): a Newton solve of incoming - outgoing(fiber_elem(b, z)) = 0
    with the incoming half evaluated once, warm-started at g_k transported
    to the new fiber.  Both halves go through ``L.pullback``.  Returns
    (g_{k+1}, r), r the residual Newton stopped at: bit for bit
    ``del_residual(desc, L, g_k, g_{k+1})`` when L has a closed gradient,
    and otherwise the residual of its fiber-directional differences."""
    gk = desc.check(gk)
    b = desc.beta(gk)
    z0 = desc.arrow_coords(gk)

    def outgoing(z):
        g = desc.fiber_elem(b, z)
        return L.pullback(g, desc.right_lift(g))

    with solver_failure("junction solve"):
        incoming = L.pullback(gk, desc.left_lift(gk))
        z, r = newton_solve(lambda z: incoming - outgoing(z), z0, tol)
        return desc.fiber_elem(b, z), r


def march(desc: Groupoid, L: DiscreteLagrangian, g1, n_steps,
          tol=DEFAULT_TOL):
    """Solve the junctions forward from g1 for n_steps arrows in all.
    Returns the arrows and the inf-norm of the residual each junction solve
    stopped at; a solver failure names the arrow it was solving for."""
    if n_steps < 1:
        raise DomainError("a trajectory needs n_steps >= 1 arrows, got %d"
                          % n_steps)
    arrows = [desc.check(g1)]
    norms = []
    for k in range(1, n_steps):
        with at_step(k):
            nxt, r = del_step(desc, L, arrows[-1], tol=tol)
        arrows.append(nxt)
        norms.append(float(np.linalg.norm(r, np.inf)))
    return arrows, norms


def solve_trajectory(desc: Groupoid, L: DiscreteLagrangian, g1, n_steps,
                     tol=DEFAULT_TOL):
    """``march``, validated by the variational oracle before it returns."""
    traj = Trajectory(desc, *march(desc, L, g1, n_steps, tol))
    traj.oracle = variational_oracle(desc, L, traj)
    if traj.oracle > ORACLE_TOL:
        raise NoConvergence("solved trajectory fails the variational check "
                            "(%.3e)" % traj.oracle, residual_norm=traj.oracle)
    return traj


# a matched pair of groups is a groupoid over a point: it steps by del_step
del_step_matched_group = del_step


def arrow_momenta(mp, L, arrows, lift=None):
    """``matched_group_momenta`` of every arrow, once each, through ``lift``;
    a solver failure names its arrow."""
    out = []
    for k, u in enumerate(arrows):
        with at_step(k), solver_failure("reference momenta"):
            out.append(matched_group_momenta(mp, L, u, lift))
    return out


def momentum_residuals(mp, arrows, momenta):
    """The momentum form at every junction of the solved ``arrows``, from
    the records ``momenta`` of adjacent arrows; a pair with a trivial action
    reduces it through its own identity and zero blocks.  A solver failure
    names the junction's later arrow."""
    out = []
    for k in range(1, len(arrows)):
        with at_step(k), solver_failure("reference residual"):
            out.append(
                _momentum_half(mp, arrows[k - 1], momenta[k - 1], "left")
                - _momentum_half(mp, arrows[k], momenta[k], "right"))
    return out


# form is a bench pin, like the tracer's, for ROADMAP item 1 to drop
def solve_matched_group_trajectory(mp, L, u1, n_steps, form="full",
                                   tol=DEFAULT_TOL):
    """``march`` from u1 for n_steps arrows; the returned norms are those of
    the reference momentum form; ``form`` takes only "full"."""
    if form != "full":
        raise TagError("unknown residual form %r" % (form,))
    arrows, _ = march(mp, L, u1, n_steps, tol)
    momenta = arrow_momenta(mp, L, arrows)
    return arrows, [float(np.linalg.norm(r, np.inf))
                    for r in momentum_residuals(mp, arrows, momenta)]


# ---------------------------------------------------------------------------
# momentum evolution
# ---------------------------------------------------------------------------

def momentum_evolution(desc, L: DiscreteLagrangian, traj: Trajectory):
    """Momenta mu_k along a trajectory and the maximum defect of the
    transport recursion mu_{k+1} = Ad*-transport of mu_k (+ forcing on an
    action groupoid), all read off one ``L.gradient`` per arrow."""
    # the group part of an arrow starts at `offset`
    if isinstance(desc, GroupGroupoid):
        offset, forcing = 0, lambda x, d: 0.0
    elif isinstance(desc, ActionGroupoid):
        # orbit_matrix(m_{k+1})^T d_m L(x_{k+1}): by the chain rule the
        # differential at the identity of xi -> L(m_{k+1} . exp(xi), g_{k+1})
        offset = desc.M.dim
        forcing = lambda x, d: desc.orbit_matrix(x[:offset]).T @ d[:offset]
    else:
        raise TagError("momentum evolution needs a group or action-groupoid "
                       "descriptor, got %s" % desc.name)
    G, arrows = desc.G, traj.arrows
    grads = [L.gradient(x) for x in arrows]
    mus = [G.lift_matrix("right", x[offset:]).T @ d[offset:]
           for x, d in zip(arrows, grads)]
    defect = 0.0
    for k in range(len(mus) - 1):
        gap = (mus[k + 1] - G.coAd(arrows[k][offset:], mus[k])
               - forcing(arrows[k + 1], grads[k + 1]))
        defect = max(defect, float(np.max(np.abs(gap))))
    return mus, defect


# ---------------------------------------------------------------------------
# brute-force variational oracle
# ---------------------------------------------------------------------------

def oracle_gradient(desc: Groupoid, L: DiscreteLagrangian, gk, gk1):
    """Gradient at z = 0 of L(g_k c(z)) + L(c(z)^{-1} g_{k+1}), c(z) =
    fiber_elem(beta(g_k), z): every product-preserving variation of the
    junction's two arrows in one central-difference stencil."""
    b = desc.beta(gk)

    def junction_action(z):
        c = desc.fiber_elem(b, z)
        return L(desc.mul(gk, c)) + L(desc.mul(desc.inv(c), gk1))

    return fd_gradient(junction_action, np.zeros(desc.fiber_dim))


def stacked_oracle_gradients(desc: Groupoid, L: DiscreteLagrangian,
                             arrows):
    """``oracle_gradient`` at every junction of ``arrows`` in one pass, for
    a descriptor and an L that take stacks: the (junctions, 2 fiber_dim,
    fiber_dim) stack of every junction's stencil goes through fiber_elem,
    mul, inv and L once, with the step and the finiteness rule of the
    per-junction stencil, so each gradient has its bits."""
    lead = (len(arrows) - 1, 2 * desc.fiber_dim)

    def spread(points):
        # one arrow or base point per junction, against each stencil point
        points = np.asarray(points)
        return np.broadcast_to(points[:, None], lead + points.shape[-1:])

    b = spread([desc.beta(g) for g in arrows[:-1]])
    gk, gk1 = spread(arrows[:-1]), spread(arrows[1:])

    def junction_actions(z):
        c = desc.fiber_elem(b, np.broadcast_to(z, lead + z.shape[-1:]))
        return (L.evaluate(desc.mul(gk, c))
                + L.evaluate(desc.mul(desc.inv(c), gk1)))

    return fd_stencil(junction_actions, np.zeros(desc.fiber_dim),
                      np.eye(desc.fiber_dim))


def variational_oracle(desc: Groupoid, L: DiscreteLagrangian,
                       traj: Trajectory):
    """Max absolute fiber derivative of the action sum over
    product-preserving variations at the interior junctions.  A discrete
    Euler-Lagrange solution must push this below ORACLE_TOL.

    Where the descriptor's maps and L take stacks (``desc.stacks`` and
    ``L.stacks``: the trivial groupoid and ``OrbitPair`` over the rotated
    plane, the spring and its matched form) it is one stacked pass over the
    trajectory, ``stacked_oracle_gradients``; otherwise one
    ``oracle_gradient`` per junction.  Both give the same bits."""
    arrows = traj.arrows
    if len(arrows) > 1 and desc.stacks and L.stacks:
        return float(np.max(np.abs(
            stacked_oracle_gradients(desc, L, arrows))))
    return max((float(np.max(np.abs(oracle_gradient(desc, L, gk, gk1))))
                for gk, gk1 in zip(arrows, arrows[1:])), default=0.0)
