"""Lie groupoids over flat base charts: the four standard constructions
(group, pair, action, trivial) and the matched-pair groupoid built from two
groupoids acting on each other.

An arrow is a flat numpy array; each descriptor knows how to read it.  Every
descriptor also carries a fiber chart: ``fiber_elem(b, z)`` parameterizes the
arrows with source b near the unit arrow, with ``fiber_elem(b, 0)`` the unit
and ``d/dz`` spanning the kernel of the source map's tangent.  That chart is
what solvers differentiate and solve over; its inverse ``arrow_coords`` is
how a curve in a source fiber is read back in fiber coordinates.

Each descriptor also owns its lift matrices: ``left_lift(g)`` and
``right_lift(g)`` are arrow_dim x fiber_dim, with column i the left / right
invariant vector field at g generated by the fiber-chart basis vector e_i.
The matched-pair groupoid takes its two mutual actions as one map,
``actions(h, g) = (h |> g, h <| g)``, the refactorization h g =
(h |> g)(h <| g), and assembles its lifts from the factor lifts and two
pairs of induced actions: the derivatives of ``actions`` along the G-fiber
and along the H-fiber, each one finite-difference stencil; a subclass with
closed pairs keeps those as its oracle.  The trivial decomposition's
``OrbitPair`` is one: its blocks are identities and the orbit and push
matrices of the action groupoid, which ``RotatedPlane`` has in closed form
and a general action takes by finite differences of ``action`` alone.

A descriptor whose ``stacks`` is true also takes stacks in ``fiber_elem``,
``mul`` and ``inv``: arrows and fiber coordinates with leading axes before
their own, mapped at once with the bits of each alone.  The trivial
groupoid of a group that takes stacks, ``RotatedPlane`` and the
``OrbitPair`` over it do; the variational oracle reads it.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DomainError
from .groups import Circle, Group, rot2
from .numerics import fd_curve_columns

COMPOSE_TOL = 1e-9


class Chart:
    """Flat R^n base chart."""

    def __init__(self, dim, name="chart"):
        self.dim = dim
        self.name = name

    def check(self, m):
        """m as an array, a point or a stack of points along its last
        axis."""
        m = np.atleast_1d(np.asarray(m, dtype=float))
        if m.shape[-1] != self.dim:
            raise DomainError("base point has size %d, expected %d"
                              % (m.shape[-1], self.dim))
        return m

    def random(self, rng, sigma=1.0):
        return sigma * rng.standard_normal(self.dim)


POINT = Chart(0, name="point")


def record_deviation(dev, key, a, b):
    """Raise dev[key] to max |a - b|, or to NaN if a or b has one; empty
    arrays (the base point of a group seen as a groupoid over a point)
    deviate by nothing."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.size or b.size:
        # np.max, not max: Python's max drops a NaN that does not come first
        dev[key] = float(np.max(np.abs(a - b), initial=dev[key]))


class Groupoid:
    """Groupoid descriptor over a base chart."""

    name = "groupoid"
    base: Chart
    arrow_dim = 0
    fiber_dim = 0
    # whether fiber_elem, mul, inv, alpha and beta also take stacks of
    # arrows and fiber coordinates, leading axes first, and map them at
    # once, as each alone
    stacks = False
    # whether left_lift and right_lift do too
    lift_stacks = False

    # -- required structure maps ---------------------------------------------

    def alpha(self, x):
        raise NotImplementedError

    def beta(self, x):
        raise NotImplementedError

    def eps(self, b):
        raise NotImplementedError

    def mul(self, x, y):
        """Partial multiplication; assumes beta(x) = alpha(y)."""
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def fiber_elem(self, b, z):
        """Chart of the source fiber through eps(b); fiber_elem(b, 0) = eps(b)."""
        raise NotImplementedError

    def arrow_coords(self, x):
        """Fiber-chart coordinates of x within the source fiber of alpha(x);
        inverse of fiber_elem(alpha(x), .) where defined."""
        raise NotImplementedError

    def left_lift(self, g):
        """Column i = d/dt g . fiber_elem(beta(g), t e_i) at t = 0."""
        raise NotImplementedError

    def right_lift(self, g):
        """Column i = -d/dt fiber_elem(alpha(g), t e_i)^{-1} . g at t = 0."""
        raise NotImplementedError

    def check(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.arrow_dim:
            raise DomainError("arrow has size %d, expected %d"
                              % (x.size, self.arrow_dim))
        return x

    # -- derived -------------------------------------------------------------

    def composability_gap(self, x, y):
        """max |beta(x) - alpha(y)|, or that of each pair of two stacks of
        arrows where the descriptor takes stacks."""
        if self.base.dim == 0:
            return 0.0
        return np.max(np.abs(self.beta(x) - self.alpha(y)), axis=-1)

    def fiber_tangent_matrix(self, b):
        """arrow_dim x fiber_dim matrix spanning A_b = ker T alpha at eps(b)."""
        return fd_curve_columns(lambda z: self.fiber_elem(b, z),
                                self.fiber_dim)

    def random_base(self, rng, sigma=1.0):
        return self.base.random(rng, sigma)

    def random_arrow(self, rng, sigma=0.7):
        b = self.random_base(rng, sigma)
        return self.fiber_elem(b, sigma * rng.standard_normal(self.fiber_dim))

    def random_with_source(self, b, rng, sigma=0.7):
        return self.fiber_elem(b, sigma * rng.standard_normal(self.fiber_dim))

    def axiom_report(self, rng, n_samples=50):
        """Max deviation of the groupoid axioms over random composable data."""
        dev = {
            "source_target_of_product": 0.0,
            "associativity": 0.0,
            "unit_source_target": 0.0,
            "unit_laws": 0.0,
            "inverse_source_target": 0.0,
            "inverse_laws": 0.0,
        }
        upd = partial(record_deviation, dev)

        for _ in range(n_samples):
            x = self.random_arrow(rng)
            y = self.random_with_source(self.beta(x), rng)
            z = self.random_with_source(self.beta(y), rng)
            xy = self.mul(x, y)
            upd("source_target_of_product", self.alpha(xy), self.alpha(x))
            upd("source_target_of_product", self.beta(xy), self.beta(y))
            upd("associativity", self.mul(xy, z), self.mul(x, self.mul(y, z)))
            b = self.random_base(rng)
            ub = self.eps(b)
            upd("unit_source_target", self.alpha(ub), b)
            upd("unit_source_target", self.beta(ub), b)
            upd("unit_laws", self.mul(x, self.eps(self.beta(x))), x)
            upd("unit_laws", self.mul(self.eps(self.alpha(x)), x), x)
            xi = self.inv(x)
            upd("inverse_source_target", self.alpha(xi), self.beta(x))
            upd("inverse_source_target", self.beta(xi), self.alpha(x))
            upd("inverse_laws", self.mul(xi, x), self.eps(self.beta(x)))
            upd("inverse_laws", self.mul(x, xi), self.eps(self.alpha(x)))
        return dev


# ---------------------------------------------------------------------------
# concrete descriptors
# ---------------------------------------------------------------------------

class GroupGroupoid(Groupoid):
    """A group seen as a groupoid over a single point.  Its check, product,
    inverse, arrow coordinates (the group's log) and lifts are the group's
    own, bound once when it is built, so a factor operation of a matched
    pair costs no wrapper call."""

    def __init__(self, G: Group):
        self.G = G
        self.check = G.check
        self.mul = G.mul
        self.inv = G.inv
        self.arrow_coords = G.log
        self.left_lift = partial(G.lift_matrix, "left")
        self.right_lift = partial(G.lift_matrix, "right")
        self.base = POINT
        self.arrow_dim = G.coord_dim
        self.fiber_dim = G.dim
        self.name = "group_%s" % G.name

    def alpha(self, x):
        return np.zeros(0)

    def beta(self, x):
        return np.zeros(0)

    def eps(self, b):
        return self.G.identity()

    def fiber_elem(self, b, z):
        return self.G.exp(z)


class PairGroupoid(Groupoid):
    """M x M with arrows (m, m') glued along matching middle points."""

    def __init__(self, M: Chart):
        self.M = M
        self.base = M
        self.arrow_dim = 2 * M.dim
        self.fiber_dim = M.dim
        self.name = "pair_%s" % M.name

    def alpha(self, x):
        return np.asarray(x, dtype=float)[..., :self.M.dim]

    def beta(self, x):
        return np.asarray(x, dtype=float)[..., self.M.dim:]

    def eps(self, b):
        b = self.M.check(b)
        return np.concatenate([b, b])

    def mul(self, x, y):
        return np.concatenate([self.alpha(x), self.beta(y)])

    def inv(self, x):
        return np.concatenate([self.beta(x), self.alpha(x)])

    def fiber_elem(self, b, z):
        b = self.M.check(b)
        return np.concatenate([b, b + np.asarray(z, dtype=float)])

    def arrow_coords(self, x):
        return self.beta(x) - self.alpha(x)

    def left_lift(self, g):
        return np.eye(self.arrow_dim, self.fiber_dim, -self.M.dim)  # (0; I)

    def right_lift(self, g):
        return -np.eye(self.arrow_dim, self.fiber_dim)  # (-I; 0)


class ActionGroupoid(Groupoid):
    """M x G for a right G-action on M; target of (m, g) is m acted on by g."""

    def __init__(self, M: Chart, G: Group, action):
        self.M = M
        self.G = G
        self.action = action
        self.base = M
        self.arrow_dim = M.dim + G.coord_dim
        self.fiber_dim = G.dim
        self.name = "action_%s_%s" % (M.name, G.name)

    def split(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., :self.M.dim], x[..., self.M.dim:]

    def alpha(self, x):
        return self.split(x)[0]

    def act(self, m, g):
        """The point m acted on by g, as a flat array."""
        return np.atleast_1d(np.asarray(self.action(m, g), dtype=float))

    def beta(self, x):
        return self.act(*self.split(x))

    def eps(self, b):
        return np.concatenate([self.M.check(b), self.G.identity()])

    def mul(self, x, y):
        m, g = self.split(x)
        _, g2 = self.split(y)
        return np.concatenate([m, self.G.mul(g, g2)], axis=-1)

    def inv(self, x):
        m, g = self.split(x)
        return np.concatenate([self.beta(x), self.G.inv(g)], axis=-1)

    def fiber_elem(self, b, z):
        return np.concatenate([self.M.check(b), self.G.exp(z)], axis=-1)

    def arrow_coords(self, x):
        return self.G.log(self.split(x)[1])

    def orbit_matrix(self, m):
        """M.dim x G.dim matrix of the infinitesimal action at m: column i is
        the velocity of m under the flow of e_i."""
        return fd_curve_columns(lambda xi: self.act(m, self.G.exp(xi)),
                                self.G.dim)

    def push_matrix(self, m, g):
        """M.dim x M.dim derivative in m of the point m acted on by g."""
        m = np.asarray(m, dtype=float)
        return fd_curve_columns(lambda dm: self.act(m + dm, g), self.M.dim)

    def left_lift(self, g):
        return np.vstack([np.zeros((self.M.dim, self.G.dim)),
                          self.G.lift_matrix("left", self.split(g)[1])])

    def right_lift(self, g):
        m, garr = self.split(g)
        return np.vstack([-self.orbit_matrix(m),
                          self.G.lift_matrix("right", garr)])


class RotatedPlane(ActionGroupoid):
    """R^2 with SO(2) rotating it, its orbit and push matrices closed; the
    ActionGroupoid ones are their finite-difference oracle.  Its action and
    the circle take stacks, so it does."""

    stacks = True

    def __init__(self):
        super().__init__(Chart(2, name="r2"), Circle(), self.act)

    def act(self, m, g):
        # one matmul of the stacked rotations: the same bits as rot2 @ m
        # for each point alone
        return (rot2(g[..., 0]) @ m[..., None])[..., 0]

    def orbit_matrix(self, m):
        # d/dt rot2(t) m at t = 0 is m turned a quarter
        return np.array([[-m[1]], [m[0]]], dtype=float)

    def push_matrix(self, m, g):
        return rot2(float(np.atleast_1d(g)[0]))


class TrivialGroupoid(Groupoid):
    """M x G x M with product (m, g, m')(m', g', n') = (m, gg', n')."""

    def __init__(self, M: Chart, G: Group):
        self.M = M
        self.G = G
        self.base = M
        self.arrow_dim = 2 * M.dim + G.coord_dim
        self.fiber_dim = G.dim + M.dim
        self.name = "trivial_%s_%s" % (M.name, G.name)
        self.stacks = self.lift_stacks = G.stacks

    def split(self, x):
        x = np.asarray(x, dtype=float)
        n = self.M.dim
        return (x[..., :n], x[..., n:n + self.G.coord_dim],
                x[..., n + self.G.coord_dim:])

    def alpha(self, x):
        return self.split(x)[0]

    def beta(self, x):
        return self.split(x)[2]

    def eps(self, b):
        b = self.M.check(b)
        return np.concatenate([b, self.G.identity(), b])

    def mul(self, x, y):
        m, g, _ = self.split(x)
        _, g2, n2 = self.split(y)
        return np.concatenate([m, self.G.mul(g, g2), n2], axis=-1)

    def inv(self, x):
        m, g, n = self.split(x)
        return np.concatenate([n, self.G.inv(g), m], axis=-1)

    def fiber_elem(self, b, z):
        b = self.M.check(b)
        z = np.asarray(z, dtype=float)
        return np.concatenate([b, self.G.exp(z[..., :self.G.dim]),
                               b + z[..., self.G.dim:]], axis=-1)

    def arrow_coords(self, x):
        m, g, n = self.split(x)
        return np.concatenate([self.G.log(g), n - m])

    def left_lift(self, g):
        m, g, _ = self.split(g)
        n, k = self.M.dim, self.G.dim
        out = np.zeros(m.shape[:-1] + (self.arrow_dim, self.fiber_dim))
        out[..., n:n + self.G.coord_dim, :k] = self.G.lift_matrix("left", g)
        out[..., n + self.G.coord_dim:, k:] = np.eye(n)
        return out

    def right_lift(self, g):
        m, g, _ = self.split(g)
        n, k = self.M.dim, self.G.dim
        out = np.zeros(m.shape[:-1] + (self.arrow_dim, self.fiber_dim))
        out[..., n:n + self.G.coord_dim, :k] = self.G.lift_matrix("right", g)
        out[..., :n, k:] = -np.eye(n)
        return out


class MatchedPairGroupoid(Groupoid):
    """Groupoid on pairs (g, h) with beta_G(g) = alpha_H(h), multiplied
    through the mutual actions, both read off one refactorization
    ``actions(h, g) = (h |> g, h <| g)``:

        (g, h)(g', h') = (g (h |> g'), (h <| g') h').

    The fiber chart realizes the sum-to-matched identification: coordinates
    (zG, zH) map to (g_z, fiber_H(beta_G(g_z), zH)), so the G summand enters
    with its target-corrected H component and the H summand sits at fixed g.
    """

    def __init__(self, Gd: Groupoid, Hd: Groupoid, actions, name=None):
        if Gd.base.dim != Hd.base.dim:
            raise DomainError("factor groupoids live over different bases")
        self.Gd = Gd
        self.Hd = Hd
        self.actions = actions
        self.base = Gd.base
        self.arrow_dim = Gd.arrow_dim + Hd.arrow_dim
        self.fiber_dim = Gd.fiber_dim + Hd.fiber_dim
        self.name = name or ("%s_bowtie_%s" % (Gd.name, Hd.name))

    def split(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., :self.Gd.arrow_dim], x[..., self.Gd.arrow_dim:]

    def join(self, g, h):
        return np.concatenate([np.atleast_1d(g), np.atleast_1d(h)])

    def split_fiber(self, z):
        z = np.asarray(z, dtype=float)
        return z[: self.Gd.fiber_dim], z[self.Gd.fiber_dim:]

    def alpha(self, x):
        return self.Gd.alpha(self.split(x)[0])

    def beta(self, x):
        return self.Hd.beta(self.split(x)[1])

    def eps(self, b):
        return self.join(self.Gd.eps(b), self.Hd.eps(b))

    def mul(self, x, y):
        g, h = self.split(x)
        g2, h2 = self.split(y)
        hg, hh = self.actions(h, g2)
        return self.join(self.Gd.mul(g, hg), self.Hd.mul(hh, h2))

    def inv(self, x):
        g, h = self.split(x)
        return self.join(*self.actions(self.Hd.inv(h), self.Gd.inv(g)))

    def fiber_elem(self, b, z):
        zg, zh = self.split_fiber(z)
        gz = self.Gd.fiber_elem(b, zg)
        return self.join(gz, self.Hd.fiber_elem(self.Gd.beta(gz), zh))

    def arrow_coords(self, x):
        g, h = self.split(x)
        return np.concatenate([self.Gd.arrow_coords(g),
                               self.Hd.arrow_coords(h)])

    # -- induced infinitesimal actions: actions differentiated along a fiber -

    def g_fiber_actions(self, h):
        """(A_g, D_h): ``actions(h, .)`` along the G-fiber at beta(h).

        A_g is X -> h |> X, into the G-fiber at alpha(h), read by
        arrow_coords (axiom i keeps the curve in that source fiber); D_h is
        X -> X^dagger(h), into the tangent vectors at h."""
        b, n = self.Hd.beta(h), self.Gd.fiber_dim

        def curve(z):
            hg, hh = self.actions(h, self.Gd.fiber_elem(b, z))
            return np.concatenate([self.Gd.arrow_coords(hg), hh])

        out = fd_curve_columns(curve, n)
        return out[:n], out[n:]

    def h_fiber_actions(self, g):
        """(D_g, A_h): ``actions(., g)`` along the inverted H-fiber curve
        y_t^{-1} at alpha(g).

        D_g is Y -> Y^dagger(g) = d/dt (y_t^{-1} |> g), into the tangent
        vectors at g; A_h is Y -> Y <| g = d/dt (y_t^{-1} <| g)^{-1}, into
        the H-fiber at beta(g), read by arrow_coords (axiom iv)."""
        b, n = self.Gd.alpha(g), self.Hd.fiber_dim

        def curve(z):
            hg, hh = self.actions(self.Hd.inv(self.Hd.fiber_elem(b, z)), g)
            return np.concatenate([hg, self.Hd.arrow_coords(self.Hd.inv(hh))])

        out = fd_curve_columns(curve, n)
        return out[:self.Gd.arrow_dim], out[self.Gd.arrow_dim:]

    def left_lift(self, x):
        """(X, Y) at beta(h) -> (left of (h |> X) at g,
        X^dagger(h) + left of Y at h).

        With ``right_lift`` it gives the paper's six-term junction residual
        of dL = (d_G, d_H) in block rows, (A_g, D_h) and (D_g, A_h) the two
        induced-action pairs above and L, R the factor lifts:

            G: A_g(h_k)^T L_G(g_k)^T d_G,k + D_h(h_k)^T d_H,k
               - R_G(g_{k+1})^T d_G,k+1
            H: L_H(h_k)^T d_H,k + D_g(g_{k+1})^T d_G,k+1
               - A_h(g_{k+1})^T R_H(h_{k+1})^T d_H,k+1
        """
        g, h = self.split(x)
        n, k = self.Gd.arrow_dim, self.Gd.fiber_dim
        A_g, D_h = self.g_fiber_actions(h)
        out = np.zeros((self.arrow_dim, self.fiber_dim))
        out[:n, :k] = self.Gd.left_lift(g) @ A_g
        out[n:, :k] = D_h
        out[n:, k:] = self.Hd.left_lift(h)
        return out

    def right_lift(self, x):
        """(X, Y) at alpha(g) -> (right of X at g - Y^dagger(g),
        right of (Y <| g) at h): the d_{k+1} terms of the six in
        ``left_lift``."""
        g, h = self.split(x)
        n, k = self.Gd.arrow_dim, self.Gd.fiber_dim
        D_g, A_h = self.h_fiber_actions(g)
        out = np.zeros((self.arrow_dim, self.fiber_dim))
        out[:n, :k] = self.Gd.right_lift(g)
        out[:n, k:] = -D_g
        out[n:, k:] = self.Hd.right_lift(h) @ A_h
        return out

    def matched_axiom_report(self, rng, n_samples=50):
        """Max deviation of the nine mutual-action compatibility conditions
        plus the identity-arrow action identities."""
        Gd, Hd, act = self.Gd, self.Hd, self.actions
        dev = {
            "i_source_of_left_action": 0.0,
            "ii_left_action_compose": 0.0,
            "iii_left_action_unit": 0.0,
            "iv_target_of_right_action": 0.0,
            "v_right_action_compose": 0.0,
            "vi_right_action_unit": 0.0,
            "vii_target_source_exchange": 0.0,
            "viii_left_action_cocycle": 0.0,
            "ix_right_action_cocycle": 0.0,
            "act_units_map_to_units": 0.0,
        }
        upd = partial(record_deviation, dev)

        for _ in range(n_samples):
            h = Hd.random_arrow(rng)
            g1 = Gd.random_with_source(Hd.beta(h), rng)
            g2 = Gd.random_with_source(Gd.beta(g1), rng)
            h2 = Hd.random_with_source(Hd.beta(h), rng)
            hp = Hd.random_with_source(Hd.alpha(h), rng)
            hp = Hd.inv(hp)  # arrow with target alpha(h)

            # each refactorization that more than one law reads
            hg, hh = act(h, g1)
            hp_h = act(Hd.mul(hp, h), g1)
            hp_hg = act(hp, hg)
            hh_g2 = act(hh, g2)
            h_g12 = act(h, Gd.mul(g1, g2))
            h_unit = act(h, Gd.eps(Hd.beta(h)))
            unit_g = act(Hd.eps(Gd.alpha(g1)), g1)

            upd("i_source_of_left_action", Gd.alpha(hg), Hd.alpha(h))
            upd("ii_left_action_compose", hp_h[0], hp_hg[0])
            upd("iii_left_action_unit", unit_g[0], g1)
            upd("iv_target_of_right_action", Hd.beta(hh), Gd.beta(g1))
            upd("v_right_action_compose", h_g12[1], hh_g2[1])
            upd("vi_right_action_unit", h_unit[1], h)
            upd("vii_target_source_exchange", Gd.beta(hg), Hd.alpha(hh))
            upd("viii_left_action_cocycle", h_g12[0], Gd.mul(hg, hh_g2[0]))
            upd("ix_right_action_cocycle", hp_h[1], Hd.mul(hp_hg[1], hh))
            upd("act_units_map_to_units", h_unit[0], Gd.eps(Hd.alpha(h)))
            upd("act_units_map_to_units", unit_g[1], Hd.eps(Gd.beta(g1)))
        return dev


# ---------------------------------------------------------------------------
# the trivial-groupoid decomposition
# ---------------------------------------------------------------------------

class OrbitPair(MatchedPairGroupoid):
    """The matched presentation (M x G) bowtie (M x M) of a trivial
    decomposition, its two induced-action pairs closed in the orbit and push
    matrices of the action groupoid; the MatchedPairGroupoid ones are their
    finite-difference oracle.  Below, h = (m', m) and g = (m, theta).

    ``mul``, ``inv`` and ``fiber_elem`` are closed too, on x = (m, a, p, q)
    with p = m a.  They run the floating-point operations of the
    MatchedPairGroupoid ones in the same order, without building the
    intermediate arrows, so they return the same bits; they take stacks
    when the action groupoid does."""

    @property
    def stacks(self):
        return self.Gd.stacks

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        n = self.base.dim
        k = n + self.Gd.G.coord_dim
        return x[..., :n], x[..., n:k], x[..., k:k + n], x[..., k + n:]

    def mul(self, x, y):
        # (m, a, p, q)(m2, a2, p2, q2) = (m, a a2, p a2, q2)
        m, a, p, _ = self._parts(x)
        _, a2, _, q2 = self._parts(y)
        return np.concatenate([m, self.Gd.G.mul(a, a2), self.Gd.act(p, a2),
                               q2], axis=-1)

    def inv(self, x):
        # (m, a, p, q)^-1 = (q, a^-1, q a^-1, p a^-1)
        _, a, p, q = self._parts(x)
        ai = self.Gd.G.inv(a)
        return np.concatenate([q, ai, self.Gd.act(q, ai), self.Gd.act(p, ai)],
                              axis=-1)

    def fiber_elem(self, b, z):
        # (b, e, c, c + z_H) with e = exp z_G and c = b e
        b = self.base.check(b)
        z = np.asarray(z, dtype=float)
        k = self.Gd.fiber_dim
        e = self.Gd.G.exp(z[..., :k])
        c = self.Gd.act(b, e)
        return np.concatenate([b, e, c, c + z[..., k:]], axis=-1)

    def g_fiber_actions(self, h):
        # (m', m) |> exp z = (m', exp z), read back by log, and
        # (m', m) <| exp z = (m' exp z, m exp z)
        return np.eye(self.Gd.fiber_dim), np.vstack([
            self.Gd.orbit_matrix(self.Hd.alpha(h)),
            self.Gd.orbit_matrix(self.Hd.beta(h))])

    def h_fiber_actions(self, g):
        # (m + z, m) |> (m, theta) = (m + z, theta), and (m + z, m) <|
        # (m, theta), inverted, runs from m theta to (m + z) theta
        return (np.eye(self.Gd.arrow_dim, self.Hd.fiber_dim),
                self.Gd.push_matrix(*self.Gd.split(g)))


class TrivialDecomposition:
    """The trivial groupoid M x G x M of an action groupoid M x G,
    alongside its matched-pair presentation (M x G) bowtie (M x M), with
    the identification map.

    The pair groupoid acts on the action groupoid by replacing the base
    point, (m', m) |> (m, g) = (m', g); the action groupoid pushes the pair
    groupoid along the orbit, (m', m) <| (m, g) = (m' g, m g).
    """

    def __init__(self, actiond: ActionGroupoid):
        self.actiond = actiond
        self.M = M = actiond.M
        self.G = G = actiond.G
        self.trivial = TrivialGroupoid(M, G)
        self.paird = PairGroupoid(M)
        self.matched = OrbitPair(actiond, self.paird, self._actions,
                                 name="triv_%s_%s" % (M.name, G.name))

    def _actions(self, h, g):
        # (m', m) |> (m, g) = (m', g) and (m', m) <| (m, g) = (m' g, m g)
        mprime, m = self.paird.alpha(h), self.paird.beta(h)
        _, gg = self.actiond.split(g)
        return (np.concatenate([mprime, gg]),
                np.concatenate([self.actiond.act(mprime, gg),
                                self.actiond.act(m, gg)]))

    def phi(self, x):
        """(m, g, n) -> ((m, g), (mg, n))."""
        m, g, n = self.trivial.split(self.trivial.check(x))
        mg = self.actiond.beta(np.concatenate([m, g]))
        return np.concatenate([m, g, mg, n])

    def phi_inv(self, y):
        """Drop the redundant middle point of a matched arrow, or of each
        in a stack of them along the last axis."""
        y = np.asarray(y, dtype=float)
        k = self.actiond.arrow_dim
        return np.concatenate([y[..., :k], y[..., k + self.M.dim:]], axis=-1)

    def phi_inv_transpose(self, d):
        """Pull a covector at phi_inv(y) back to y: phi_inv drops the middle
        point, so its transpose puts zeros there."""
        m, g, n = self.trivial.split(d)
        return np.concatenate([m, g, np.zeros_like(n), n])


def default_trivial_decomposition():
    """The desk-scale instance: M = R^2 with SO(2) rotating it."""
    return TrivialDecomposition(RotatedPlane())
