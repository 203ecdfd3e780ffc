"""Matched pairs of Lie groups: mutual actions, the product group they
induce, and the induced infinitesimal actions used by the discrete dynamics.

A matched pair consists of groups G and H acting on each other, written
``h |> g`` (H on G) and ``h <| g`` (G on H), compatibly enough that G x H
becomes a group under

    (g1, h1)(g2, h2) = (g1 (h1 |> g2), (h1 <| g2) h2).

Both actions come from one refactorization h g = (h |> g)(h <| g), which a
pair gives as the one map ``actions(h, g)``.  This is the matched-pair
groupoid of the two groups seen as groupoids over a point, and
``MatchedPairGroup`` is one: it subclasses ``MatchedPairGroupoid`` over
``GroupGroupoid(G)`` and ``GroupGroupoid(H)``, so the product, the inverse,
the lift matrices, the compatibility axioms and, by default, the two pairs
of induced infinitesimal actions (by finite differences of ``actions``) are
the groupoid's.  It closes the fiber chart as (exp_G, exp_H).  Concrete
pairs (``Su2K`` and the degenerate pairs) override the two pairs with closed
forms; the algebra bracket is derived from them too.  ``Su2K`` works in
chart coordinates only: the SL(2, C) matrices of its factors are test
references (``tests/reference.py``).  The log, which is also the
groupoid's ``arrow_coords``, reads a point once and makes one array of its
factors' ``log_values``, split at the G chart's size.  The adjoint matrix is
the finite-difference ``Group.Ad_matrix`` on the product, read through that
componentwise ``log``; no command reads it.  ``generic()`` returns the same
pair as a plain ``MatchedPairGroup``, so closed forms can be checked against
it.

``Su2K`` also has stacked twins of the maps that re-deriving a trajectory
reads (``stacked_maps``): its chart check and its two closed induced-action
pairs take a stack of arrows or factor points, leading axes first, with the
bits of each alone, so ``check residual`` and ``run sl2c`` re-derive every
arrow's momenta and every junction's momentum form in one array pass.  The
solve keeps the per-point maps.
"""
from __future__ import annotations

import numpy as np

from .groupoids import (GroupGroupoid, Groupoid, MatchedPairGroupoid,
                        record_deviation)
from .groups import (SO3, SU2, Abelian, Group, KGroup, _vec, hat3,
                     hat3_stack, rotation_matrix_of_quaternion)
from .numerics import fd_curve

POINT_BASE = np.zeros(0)  # the base point of a group seen as a groupoid


class MatchedPairGroup(MatchedPairGroupoid, Group):
    """Product group G x H built from a matched pair of mutual actions: the
    matched-pair groupoid of G and H over a point.

    The map ``actions(h, g) = (h |> g, h <| g)`` is passed in or defined by
    a subclass.  Elements are the concatenation of a G chart point and an H
    chart point.  The exp/log pair is the fiber chart, the componentwise
    retraction (exp_G, exp_H); it is a chart around the identity with the
    correct derivative, which is all the downstream finite differencing
    needs.  The log reads the point once and joins the factors'
    ``log_values`` into one array, with no factor array in between.
    """

    # whether the pair has stacked twins (``check_stack``, the factors'
    # ``log_dlog_stack`` and ``right_lift_stack``, and
    # ``g_fiber_actions_stack`` / ``h_fiber_actions_stack``) of the maps
    # that the momentum records and form read, and its factors' Ad_matrix
    # takes stacks
    stacked_maps = False

    def __init__(self, G: Group, H: Group, actions=None, name=None):
        self.G = G
        self.H = H
        super().__init__(GroupGroupoid(G), GroupGroupoid(H),
                         actions or self.actions,
                         name=name or "%s_bowtie_%s" % (G.name, H.name))
        self.dim = self.fiber_dim
        self.coord_dim = self.arrow_dim

    # -- group structure over the point --------------------------------------

    def identity(self):
        return self.eps(POINT_BASE)

    def check(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        g, h = self.split(u)
        self.G.check(g)
        self.H.check(h)
        return u

    def fiber_elem(self, b, z):
        # the groupoid's chart with both factor bases the point
        z = np.asarray(z, dtype=float)
        return np.concatenate([self.G.exp(z[:self.G.dim]),
                               self.H.exp(z[self.G.dim:])])

    def exp(self, w):
        return self.fiber_elem(POINT_BASE, _vec(w, self.dim))

    def log(self, u):
        return np.array(self.log_values(_vec(u, self.coord_dim).tolist()))

    def log_values(self, values):
        n = self.G.coord_dim
        return self.G.log_values(values[:n]) + self.H.log_values(values[n:])

    # the groupoid's fiber-chart inverse is the group's log
    arrow_coords = log

    def random(self, rng, sigma=0.5):
        return self.join(self.G.random(rng, sigma), self.H.random(rng, sigma))

    def generic(self):
        """The same pair without closed-form overrides: every induced
        action is the base-class finite-difference one."""
        return MatchedPairGroup(self.G, self.H, self.actions)

    def lift_matrix(self, side, u):
        return self.left_lift(u) if side == "left" else self.right_lift(u)

    # -- algebra bracket -----------------------------------------------------

    def bracket(self, w1, w2):
        xi1, eta1 = self.split_fiber(_vec(w1, self.dim))
        xi2, eta2 = self.split_fiber(_vec(w2, self.dim))
        bg = (self.G.bracket(xi1, xi2)
              + self.act_alg_g_from_eta(eta1, xi2)
              - self.act_alg_g_from_eta(eta2, xi1))
        bh = (self.H.bracket(eta1, eta2)
              + self.act_alg_h_from_xi(eta1, xi2)
              - self.act_alg_h_from_xi(eta2, xi1))
        return self.join(bg, bh)

    def act_alg_g_from_eta(self, eta, xi):
        """eta |> xi: derivative of h |> xi along h = exp(t eta)."""
        xi = _vec(xi, self.G.dim)
        eta = _vec(eta, self.H.dim)
        return fd_curve(
            lambda t: self.g_fiber_actions(self.H.exp(t * eta))[0] @ xi)

    def act_alg_h_from_xi(self, eta, xi):
        """eta <| xi: derivative of eta <| g along g = exp(t xi)."""
        xi = _vec(xi, self.G.dim)
        eta = _vec(eta, self.H.dim)
        return fd_curve(
            lambda t: self.h_fiber_actions(self.G.exp(t * xi))[1] @ eta)

    # -- compatibility checks ------------------------------------------------

    def axiom_report(self, rng, n_samples=20):
        """Max deviation of each compatibility condition over random
        samples: the matched-pair action laws and groupoid axioms over a
        point, plus the Jacobi identity of the algebra bracket."""
        dev = self.matched_axiom_report(rng, n_samples)
        dev.update(Groupoid.axiom_report(self, rng, n_samples))
        dev["bracket_jacobi"] = 0.0
        for _ in range(n_samples):
            x, y, z = (self.random_algebra(rng) for _ in range(3))
            jac = (self.bracket(x, self.bracket(y, z))
                   + self.bracket(y, self.bracket(z, x))
                   + self.bracket(z, self.bracket(x, y)))
            record_deviation(dev, "bracket_jacobi", jac, np.zeros(self.dim))
        return dev


# ---------------------------------------------------------------------------
# SU(2) bowtie K: the matched pair underlying SL(2, C)
# ---------------------------------------------------------------------------

E3 = np.array([0.0, 0.0, 1.0])


class Su2K(MatchedPairGroup):
    """SU(2) and K acting on each other through the factorization of
    SL(2, C) into (unitary) x (lower triangular, positive diagonal).

    Every product B * A of a triangular factor and a unitary factor
    refactorizes as (B |> A)(B <| A); ``actions`` reads both factors off
    that product with no complex matrix, and the SL(2, C) matrix product and
    factorization in ``tests/reference.py`` are its test reference.  The two
    induced-action pairs carry closed forms, so the lift matrices and every
    solve use them; ``generic()`` keeps the finite-difference ones, which
    ``check axioms`` compares them with.  The right lift is closed too: it
    builds the SU(2) right lift and the rotation of g once for its factor
    and dagger blocks.  Every other groupoid operation is the
    ``MatchedPairGroupoid`` one.
    """

    stacked_maps = True

    def __init__(self):
        super().__init__(SU2(), KGroup(), name="su2_bowtie_k")

    def actions(self, h, g):
        """(B |> A, B <| A) of the K point B = h and the SU(2) point A = g.

        B |> A is read off the second column of the 2x2 product B A.  The
        triangular factor only scales that column by its positive corner
        entry, so it is a positive multiple of the unitary factor's second
        column (-y' - ix', w' + iz').  Times s = sqrt(1 + c), with B =
        [[s, 0], [(a + ib)/s, 1/s]] and A's second column (-y - ix, w + iz),
        it is (-(1 + c)(y + ix), w + iz - (a + ib)(y + ix)), whose real and
        imaginary parts give q = (w', x', y', z') up to one normalization.

        B <| A is the triangular factor in the (a, b, c) chart: the component
        s*e3 along the axis is preserved and the rest rotates by the inverse
        of rot_of(q)."""
        B = self.H.check(h)
        a, b, c = B
        w, x, y, z = _vec(g, 4)
        q = np.array([w - a * y + b * x, (1.0 + c) * x, (1.0 + c) * y,
                      z - a * x - b * y])
        q = q / np.sqrt(q @ q)
        s = float(B @ B) / (2.0 * (1.0 + c))
        R = rotation_matrix_of_quaternion(q)
        return q, s * E3 + R.T @ (B - s * E3)

    # -- closed-form infinitesimal actions -----------------------------------

    def g_fiber_actions(self, h):
        # B |> X = M X for the 3x3 matrix view M of B, and X^dagger(B) =
        # T r_B (B~ x (B |> X)), with T r_B = (1+c) Id in the (a, b, c)
        # chart; B is read once and, like every map that only builds
        # matrices from a point the solver holds, not tested again
        B = _vec(h, 3)
        a, b, c = B
        M = np.array([[1.0 + c, 0.0, 0.0], [0.0, 1.0 + c, 0.0], [-a, -b, 1.0]])
        b_tilde = (B / (c + 1.0)
                   - (float(B @ B) / (2.0 * (c + 1.0) ** 2)) * E3)
        return M, (1.0 + c) * hat3(b_tilde) @ M

    def h_fiber_actions(self, g):
        # d/dt (exp(tY)^{-1} |> A) = -Y^dagger(A) = T r_A ((Ad_A e3 - e3) x Y)
        # with Ad_A = R and T r_A the SU(2) right lift; and Y <| A = R^T Y
        R = self.G.rot_of(g)
        return self.G.lift_matrix("right", g) @ hat3(R @ E3 - E3), R.T

    def right_lift(self, u):
        # MatchedPairGroupoid.right_lift's [[T, -D_g], [0, T_K A_h]], with
        # D_g = T hat3(R e3 - e3) and A_h = R^T, from one SU(2) right lift T
        # and one rotation R of g: the same products on the same values
        g, h = self.split(u)
        T = self.G.lift_matrix("right", g)
        R = self.G.rot_of(g)
        out = np.zeros((7, 6))
        out[:4, :3] = T
        out[:4, 3:] = -(T @ hat3(R[:, 2] - E3))
        out[4:, 3:] = self.H.lift_matrix("right", h) @ R.T
        return out

    # -- stacked twins, for the re-check --------------------------------------

    def check_stack(self, u):
        """``check`` of a stack of arrows."""
        g, h = self.split(u)
        self.G.check_stack(g)
        self.H.check_stack(h)
        return u

    def g_fiber_actions_stack(self, h):
        """``g_fiber_actions`` of a stack of K points."""
        c1 = 1.0 + h[..., 2]
        M = np.zeros(h.shape + (3,))
        M[..., 0, 0] = M[..., 1, 1] = c1
        M[..., 2, :2] = -h[..., :2]
        M[..., 2, 2] = 1.0
        b_tilde = (h / c1[..., None]
                   - (np.vecdot(h, h) / (2.0 * np.float_power(c1, 2.0)))[
                       ..., None] * E3)
        return M, np.matmul(c1[..., None, None] * hat3_stack(b_tilde), M)

    def h_fiber_actions_stack(self, g):
        """``h_fiber_actions`` of a stack of SU(2) points."""
        R = self.G.rot_of_stack(g)
        return (np.matmul(self.G.right_lift_stack(g),
                          hat3_stack(np.matmul(R, E3) - E3)),
                R.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# degenerate matched pairs (one or both actions trivial)
# ---------------------------------------------------------------------------

class DegeneratePair(MatchedPairGroup):
    """G x H whose mutual actions are trivial unless a subclass defines one.
    A trivial action's induced blocks are an identity and a zero block, so
    both pairs are closed; ``generic()`` keeps the finite-difference ones."""

    def actions(self, h, g):
        return np.asarray(g, dtype=float), np.asarray(h, dtype=float)

    def g_fiber_actions(self, h):
        return np.eye(self.G.dim), np.zeros((self.H.coord_dim, self.G.dim))

    def h_fiber_actions(self, g):
        return np.zeros((self.G.coord_dim, self.H.dim)), np.eye(self.H.dim)


class RotatedTranslations(DegeneratePair):
    """R^3 x| SO(3): h |> x = R_h x, and the action of G on H is trivial."""

    def __init__(self):
        super().__init__(Abelian(3), SO3(), name="r3_rtimes_so3")

    def actions(self, h, g):
        return (np.asarray(h).reshape(3, 3) @ np.asarray(g),
                np.asarray(h, dtype=float))

    def g_fiber_actions(self, h):
        return (np.asarray(h, dtype=float).reshape(3, 3),
                np.zeros((self.H.coord_dim, self.G.dim)))

    def h_fiber_actions(self, g):
        # d/dt exp(tY)^{-1} g = -Y x g = g x Y
        return hat3(g), np.eye(self.H.dim)


class CarriedTranslations(DegeneratePair):
    """SO(3) |x R^3: h <| g = R_g^T h, and the action of H on G is
    trivial."""

    def __init__(self):
        super().__init__(SO3(), Abelian(3), name="so3_ltimes_r3")

    def actions(self, h, g):
        return (np.asarray(g, dtype=float),
                np.asarray(g).reshape(3, 3).T @ np.asarray(h))

    def g_fiber_actions(self, h):
        # d/dt exp(tX)^T h = -X x h = h x X
        return np.eye(self.G.dim), hat3(h)

    def h_fiber_actions(self, g):
        # (y_t^{-1} <| g)^{-1} = R_g^T y_t
        return (np.zeros((self.G.coord_dim, self.H.dim)),
                np.asarray(g, dtype=float).reshape(3, 3).T)


def right_trivial_pair():
    """Translations of R^3 matched with SO(3) rotating them: the action of
    G on H is trivial, giving a semidirect product R^3 x| SO(3)."""
    return RotatedTranslations()


def left_trivial_pair():
    """SO(3) matched with R^3 carried along by the inverse rotation: the
    action of H on G is trivial, giving a semidirect product SO(3) |x R^3."""
    return CarriedTranslations()


def both_trivial_pair():
    """Direct product of two copies of SO(3)."""
    return DegeneratePair(SO3(), SO3(), name="so3_times_so3")
