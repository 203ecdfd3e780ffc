"""Matched pairs of Lie groups: mutual actions, the product group they
induce, and the induced infinitesimal actions used by the discrete dynamics.

A matched pair consists of groups G and H acting on each other, written
``h |> g`` (H on G) and ``h <| g`` (G on H), compatibly enough that G x H
becomes a group under

    (g1, h1)(g2, h2) = (g1 (h1 |> g2), (h1 <| g2) h2).

This is the matched-pair groupoid of the two groups seen as groupoids over a
point, and ``MatchedPairGroup`` is one: it subclasses ``MatchedPairGroupoid``
over ``GroupGroupoid(G)`` and ``GroupGroupoid(H)``, so the product, the
inverse, the lift matrices, the compatibility axioms and, by default, the
four induced infinitesimal actions (as matrices, by finite differences) are
the groupoid's.  Concrete pairs (``Su2K`` and the degenerate pairs) override
those four matrices with closed forms; the algebra bracket is derived from
them too.  ``Su2K`` also closes the operations of the sl2c junction solve
(the lifts, ``fiber_elem``, ``mul`` and ``inv``) in the groupoid's own
floating-point operations, so they return its bits.
The adjoint matrix is the finite-difference ``Group.Ad_matrix`` on the
product, read through the componentwise ``log``.  ``generic()`` returns the
same pair as a plain ``MatchedPairGroup``, so closed forms can be checked
against it.
"""
from __future__ import annotations

import numpy as np

from .groupoids import (GroupGroupoid, Groupoid, MatchedPairGroupoid,
                        record_deviation)
from .groups import (SO3, SU2, Abelian, Group, KGroup, _vec, hat3,
                     rotation_matrix_of_quaternion, su2_lift)
from .numerics import fd_curve

POINT_BASE = np.zeros(0)  # the base point of a group seen as a groupoid


class MatchedPairGroup(MatchedPairGroupoid, Group):
    """Product group G x H built from a matched pair of mutual actions: the
    matched-pair groupoid of G and H over a point.

    The actions ``act_on_g(h, g)`` (h |> g) and ``act_on_h(h, g)`` (h <| g)
    are passed in or defined by a subclass.  Elements are the concatenation
    of a G chart point and an H chart point.  The exp/log pair is the fiber
    chart, the componentwise retraction (exp_G, exp_H); it is a chart around
    the identity with the correct derivative, which is all the downstream
    finite differencing needs.
    """

    def __init__(self, G: Group, H: Group, act_on_g=None, act_on_h=None,
                 name=None):
        self.G = G
        self.H = H
        super().__init__(GroupGroupoid(G), GroupGroupoid(H),
                         act_on_g or self.act_on_g, act_on_h or self.act_on_h,
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

    def exp(self, w):
        return self.fiber_elem(POINT_BASE, self.algebra_vector(w))

    def log(self, u):
        return self.arrow_coords(u)

    def random(self, rng, sigma=0.5):
        return self.join(self.G.random(rng, sigma), self.H.random(rng, sigma))

    def generic(self):
        """The same pair without closed-form overrides: every induced
        operator is the base-class finite-difference one."""
        return MatchedPairGroup(self.G, self.H, self.act_on_g, self.act_on_h)

    def lift_matrix(self, side, u):
        return self.left_lift(u) if side == "left" else self.right_lift(u)

    # -- algebra bracket -----------------------------------------------------

    def bracket(self, w1, w2):
        xi1, eta1 = self.split_fiber(self.algebra_vector(w1))
        xi2, eta2 = self.split_fiber(self.algebra_vector(w2))
        bg = (self.G.bracket(xi1, xi2)
              + self.act_alg_g_from_eta(eta1, xi2)
              - self.act_alg_g_from_eta(eta2, xi1))
        bh = (self.H.bracket(eta1, eta2)
              + self.act_alg_h_from_xi(eta1, xi2)
              - self.act_alg_h_from_xi(eta2, xi1))
        return self.join(bg, bh)

    def act_alg_g_from_eta(self, eta, xi):
        """eta |> xi: derivative of h |> xi along h = exp(t eta)."""
        xi = self.G.algebra_vector(xi)
        eta = self.H.algebra_vector(eta)
        return fd_curve(
            lambda t: self.act_on_fiber_g_matrix(self.H.exp(t * eta)) @ xi)

    def act_alg_h_from_xi(self, eta, xi):
        """eta <| xi: derivative of eta <| g along g = exp(t xi)."""
        xi = self.G.algebra_vector(xi)
        eta = self.H.algebra_vector(eta)
        return fd_curve(
            lambda t: self.act_on_fiber_h_matrix(self.G.exp(t * xi)) @ eta)

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
    refactorizes as (B |> A)(B <| A); those two maps are the mutual actions.
    B |> A is read off one column of that product, with no complex matrix,
    and B <| A rotates by it; the SL(2, C) matrices (``compose``,
    ``decompose``) are their test reference.  The four induced-action
    matrices carry closed forms, so the lift matrices and every solve use
    them; ``generic()`` keeps the finite-difference ones, which
    ``check axioms`` compares them with.
    """

    def __init__(self):
        super().__init__(SU2(), KGroup(), name="su2_bowtie_k")

    # -- group-level actions -------------------------------------------------

    def act_on_g(self, h, g):
        """B |> A, read off the second column of mat2(B) @ mat2(A).

        The triangular factor only scales that column by its positive corner
        entry, so it is a positive multiple of the unitary factor's second
        column (-y' - ix', w' + iz').  Times s = sqrt(1 + c), with mat2(B) =
        [[s, 0], [(a + ib)/s, 1/s]] and mat2(A)'s column (-y - ix, w + iz),
        it is (-(1 + c)(y + ix), w + iz - (a + ib)(y + ix)), whose real and
        imaginary parts give (w', x', y', z') up to one normalization."""
        return self._act_on_g(self.H.check(h), g)

    def act_on_h(self, h, g):
        """B <| A: the triangular factor of mat2(B) @ mat2(A), in the
        (a, b, c) chart: the component s*e3 along the axis is preserved and
        the rest rotates by the inverse of rot_of(B |> A)."""
        B = self.H.check(h)
        return self._act_on_h(B, self._act_on_g(B, g))

    # the two actions of the checked K point B, B <| A from q = B |> A

    def _act_on_g(self, B, g):
        a, b, c = B
        w, x, y, z = _vec(g, 4)
        q = np.array([w - a * y + b * x, (1.0 + c) * x, (1.0 + c) * y,
                      z - a * x - b * y])
        return q / np.sqrt(q @ q)

    def _act_on_h(self, B, q):
        s = float(B @ B) / (2.0 * (1.0 + B[2]))
        R = rotation_matrix_of_quaternion(q)
        return s * E3 + R.T @ (B - s * E3)

    def decompose(self, M):
        """Split M in SL(2, C) as (SU(2) chart point, K chart point) with
        M = mat2(A) @ mat2(B)."""
        P = M.conj().T @ M
        r = np.sqrt(P[1, 1].real)
        q = P[1, 0] / r
        p = np.sqrt(max(P[0, 0].real - abs(q) ** 2, 0.0))
        L = np.array([[p, 0.0], [q, r]])
        U = M @ np.linalg.inv(L)
        return self.G.from_mat2(U), self.H.from_mat2(L)

    def compose(self, g, h):
        """mat2(A) @ mat2(B) in SL(2, C); inverse of decompose."""
        return self.G.mat2(g) @ self.H.mat2(h)

    # -- closed-form infinitesimal actions -----------------------------------

    def act_on_fiber_g_matrix(self, h):
        # B |> X = mat3(B) X
        return self.H.mat3(h)

    def dagger_on_h_matrix(self, h):
        return self._dagger_on_h(h, self.H.mat3(h))

    def _dagger_on_h(self, h, M):
        # X^dagger(B) = T r_B (B~ x (B |> X)), with T r_B = (1+c) Id in the
        # (a, b, c) chart and B |> X = M X
        B = self.H.check(h)
        c = B[2]
        b_tilde = (B / (c + 1.0)
                   - (float(B @ B) / (2.0 * (c + 1.0) ** 2)) * E3)
        return (1.0 + c) * hat3(b_tilde) @ M

    def dagger_on_g_matrix(self, g):
        return self._dagger_on_g(g, self.G.rot_of(g))

    def _dagger_on_g(self, g, R):
        # d/dt (exp(tY)^{-1} |> A) = -Y^dagger(A) = T r_A ((Ad_A e3 - e3) x Y)
        # with Ad_A = R and T r_A from su2_lift: it stays closed when a
        # re-check of an FD-written file swaps G.lift_matrix for finite
        # differences
        return su2_lift("right", g) @ hat3(R @ E3 - E3)

    def act_on_fiber_h_matrix(self, g):
        # Y <| A = rot_of(A)^T Y
        return self.G.rot_of(g).T

    # -- closed groupoid operations ------------------------------------------
    # the MatchedPairGroupoid ones in the same floating-point operations, so
    # they return the same bits: mul and inv check B and compute B |> A
    # once for both actions, and the lifts build mat3(h) or rot_of(g) once for both blocks
    # that read it and take the factor blocks from G.lift_matrix and
    # H.lift_matrix, which a re-check of an FD-written file swaps

    def mul(self, x, y):
        g, h = self.split(x)
        g2, h2 = self.split(y)
        B = self.H.check(h)
        q = self._act_on_g(B, g2)
        return self.join(self.G.mul(g, q), self.H.mul(self._act_on_h(B, q),
                                                      h2))

    def inv(self, x):
        g, h = self.split(x)
        # checked as the generic act_on_g checks it: for a large c the
        # inverse's c = -c / (1 + c) rounds onto -1
        gi, hi = self.G.inv(g), self.H.check(self.H.inv(h))
        q = self._act_on_g(hi, gi)
        return self.join(q, self._act_on_h(hi, q))

    def fiber_elem(self, b, z):
        z = np.asarray(z, dtype=float)
        return np.concatenate([self.G.exp(z[:3]), self.H.exp(z[3:])])

    def left_lift(self, x):
        g, h = self.split(x)
        M = self.H.mat3(h)
        out = np.zeros((7, 6))
        out[:4, :3] = self.G.lift_matrix("left", g) @ M
        out[4:, :3] = self._dagger_on_h(h, M)
        out[4:, 3:] = self.H.lift_matrix("left", h)
        return out

    def right_lift(self, x):
        g, h = self.split(x)
        R = self.G.rot_of(g)
        out = np.zeros((7, 6))
        out[:4, :3] = self.G.lift_matrix("right", g)
        out[:4, 3:] = -self._dagger_on_g(g, R)
        out[4:, 3:] = self.H.lift_matrix("right", h) @ R.T
        return out


# ---------------------------------------------------------------------------
# degenerate matched pairs (one or both actions trivial)
# ---------------------------------------------------------------------------

class DegeneratePair(MatchedPairGroup):
    """G x H whose mutual actions are trivial unless a subclass defines one.
    A trivial action's induced matrices are an identity and a zero block,
    so all four are closed; ``generic()`` keeps the finite-difference
    ones."""

    def act_on_g(self, h, g):
        return np.asarray(g, dtype=float)

    def act_on_h(self, h, g):
        return np.asarray(h, dtype=float)

    def act_on_fiber_g_matrix(self, h):
        return np.eye(self.G.dim)

    def dagger_on_h_matrix(self, h):
        return np.zeros((self.H.coord_dim, self.G.dim))

    def dagger_on_g_matrix(self, g):
        return np.zeros((self.G.coord_dim, self.H.dim))

    def act_on_fiber_h_matrix(self, g):
        return np.eye(self.H.dim)


class RotatedTranslations(DegeneratePair):
    """R^3 x| SO(3): h |> x = R_h x, and the action of G on H is trivial."""

    def __init__(self):
        super().__init__(Abelian(3), SO3(), name="r3_rtimes_so3")

    def act_on_g(self, h, g):
        return np.asarray(h).reshape(3, 3) @ np.asarray(g)

    def act_on_fiber_g_matrix(self, h):
        return np.asarray(h, dtype=float).reshape(3, 3)

    def dagger_on_g_matrix(self, g):
        # d/dt exp(tY)^{-1} g = -Y x g = g x Y
        return hat3(g)


class CarriedTranslations(DegeneratePair):
    """SO(3) |x R^3: h <| g = R_g^T h, and the action of H on G is
    trivial."""

    def __init__(self):
        super().__init__(SO3(), Abelian(3), name="so3_ltimes_r3")

    def act_on_h(self, h, g):
        return np.asarray(g).reshape(3, 3).T @ np.asarray(h)

    def dagger_on_h_matrix(self, h):
        # d/dt exp(tX)^T h = -X x h = h x X
        return hat3(h)

    def act_on_fiber_h_matrix(self, g):
        # (y_t^{-1} <| g)^{-1} = R_g^T y_t
        return np.asarray(g, dtype=float).reshape(3, 3).T


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
