"""Matched pairs of Lie groups: mutual actions, the product group they
induce, and the transpose operators used by the discrete momentum equations.

A matched pair consists of groups G and H acting on each other, written
``h |> g`` (H on G) and ``h <| g`` (G on H), compatibly enough that G x H
becomes a group under

    (g1, h1)(g2, h2) = (g1 (h1 |> g2), (h1 <| g2) h2).

All derived objects (infinitesimal actions, dagger vector fields, their
transposes, the algebra bracket, Ad, invariant vector fields) have generic
finite-difference implementations on the base class; concrete pairs override
them with closed forms where available.  ``generic()`` returns the same pair
as a plain ``MatchedPairGroup``, whose operators are all the
finite-difference ones, so closed forms can be checked against it.
"""
from __future__ import annotations

import numpy as np

from .errors import MatchedAxiomError
from .groups import SO3, SU2, Abelian, Group, KGroup, quat_mul
from .numerics import fd_curve


class MatchedPairGroup(Group):
    """Product group G x H built from a matched pair of mutual actions.

    Elements are the concatenation of a G chart point and an H chart point.
    The exp/log pair is the componentwise retraction (exp_G, exp_H); it is a
    chart around the identity with the correct derivative, which is all the
    downstream finite differencing needs.
    """

    def __init__(self, G: Group, H: Group, act_on_g=None, act_on_h=None,
                 name=None):
        self.G = G
        self.H = H
        self.dim = G.dim + H.dim
        self.coord_dim = G.coord_dim + H.coord_dim
        self.name = name or ("%s_bowtie_%s" % (G.name, H.name))
        if act_on_g is not None:
            self.act_on_g = act_on_g
        if act_on_h is not None:
            self.act_on_h = act_on_h

    # -- mutual actions (h |> g and h <| g) ----------------------------------

    def act_on_g(self, h, g):
        raise NotImplementedError

    def act_on_h(self, h, g):
        raise NotImplementedError

    # -- element plumbing ----------------------------------------------------

    def split(self, u):
        u = np.asarray(u, dtype=float)
        return u[: self.G.coord_dim], u[self.G.coord_dim:]

    def join(self, g, h):
        return np.concatenate([np.atleast_1d(g), np.atleast_1d(h)])

    def split_alg(self, w):
        w = np.asarray(w, dtype=float)
        return w[: self.G.dim], w[self.G.dim:]

    def join_alg(self, xi, eta):
        return np.concatenate([np.atleast_1d(xi), np.atleast_1d(eta)])

    # -- group structure -----------------------------------------------------

    def identity(self):
        return self.join(self.G.identity(), self.H.identity())

    def check(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        g, h = self.split(u)
        self.G.check(g)
        self.H.check(h)
        return u

    def mul(self, u1, u2):
        g1, h1 = self.split(u1)
        g2, h2 = self.split(u2)
        return self.join(
            self.G.mul(g1, self.act_on_g(h1, g2)),
            self.H.mul(self.act_on_h(h1, g2), h2),
        )

    def inv(self, u):
        g, h = self.split(u)
        gi = self.G.inv(g)
        hi = self.H.inv(h)
        return self.join(self.act_on_g(hi, gi), self.act_on_h(hi, gi))

    def exp(self, w):
        xi, eta = self.split_alg(self.algebra_vector(w))
        return self.join(self.G.exp(xi), self.H.exp(eta))

    def log(self, u):
        g, h = self.split(u)
        return self.join_alg(self.G.log(g), self.H.log(h))

    def algebra_tangent_matrix(self):
        EG = self.G.algebra_tangent_matrix()
        EH = self.H.algebra_tangent_matrix()
        E = np.zeros((self.coord_dim, self.dim))
        E[: EG.shape[0], : EG.shape[1]] = EG
        E[EG.shape[0]:, EG.shape[1]:] = EH
        return E

    def tangent_to_algebra(self, v):
        v = np.asarray(v, dtype=float)
        return self.join_alg(
            self.G.tangent_to_algebra(v[: self.G.coord_dim]),
            self.H.tangent_to_algebra(v[self.G.coord_dim:]),
        )

    def random(self, rng, sigma=0.5):
        return self.join(self.G.random(rng, sigma), self.H.random(rng, sigma))

    # -- induced infinitesimal actions ---------------------------------------

    def act_alg_g(self, h, xi):
        """h |> xi in the Lie algebra of G."""
        xi = self.G.algebra_vector(xi)
        v = fd_curve(lambda t: self.act_on_g(h, self.G.exp(t * xi)))
        return self.G.tangent_to_algebra(v)

    def dagger_h(self, h, xi):
        """xi^dagger(h) = h <| xi, a tangent vector at h in H coordinates."""
        xi = self.G.algebra_vector(xi)
        return fd_curve(lambda t: self.act_on_h(h, self.G.exp(t * xi)))

    def dagger_g(self, eta, g):
        """eta^dagger(g) = eta |> g, a tangent vector at g in G coordinates."""
        eta = self.H.algebra_vector(eta)
        return fd_curve(lambda t: self.act_on_g(self.H.exp(t * eta), g))

    def act_alg_h(self, eta, g):
        """eta <| g in the Lie algebra of H."""
        eta = self.H.algebra_vector(eta)
        v = fd_curve(lambda t: self.act_on_h(self.H.exp(t * eta), g))
        return self.H.tangent_to_algebra(v)

    def generic(self):
        """The same pair without closed-form overrides: every induced
        operator is the base-class finite-difference one."""
        return MatchedPairGroup(self.G, self.H, self.act_on_g, self.act_on_h)

    # -- transposes feeding the discrete momentum equations ------------------

    def tr_star(self, mu, h):
        """mu <|* h: transpose of xi -> h |> xi on the dual of Lie(G)."""
        M = np.column_stack([self.act_alg_g(h, e) for e in np.eye(self.G.dim)])
        return M.T @ np.asarray(mu, dtype=float)

    def a_star(self, h, psi):
        """Transpose of xi -> xi^dagger(h); maps covectors at h to Lie(G)*."""
        A = np.column_stack([self.dagger_h(h, e) for e in np.eye(self.G.dim)])
        return A.T @ np.asarray(psi, dtype=float)

    def b_star(self, g, phi):
        """Transpose of eta -> eta^dagger(g); maps covectors at g to Lie(H)*."""
        B = np.column_stack([self.dagger_g(e, g) for e in np.eye(self.H.dim)])
        return B.T @ np.asarray(phi, dtype=float)

    def g_star(self, g, nu):
        """g |>* nu: transpose of eta -> eta <| g on the dual of Lie(H)."""
        N = np.column_stack([self.act_alg_h(e, g) for e in np.eye(self.H.dim)])
        return N.T @ np.asarray(nu, dtype=float)

    # -- algebra bracket and adjoint action ----------------------------------

    def bracket(self, w1, w2):
        xi1, eta1 = self.split_alg(self.algebra_vector(w1))
        xi2, eta2 = self.split_alg(self.algebra_vector(w2))
        bg = (self.G.bracket(xi1, xi2)
              + self.act_alg_g_from_eta(eta1, xi2)
              - self.act_alg_g_from_eta(eta2, xi1))
        bh = (self.H.bracket(eta1, eta2)
              + self.act_alg_h_from_xi(eta1, xi2)
              - self.act_alg_h_from_xi(eta2, xi1))
        return self.join_alg(bg, bh)

    def act_alg_g_from_eta(self, eta, xi):
        """eta |> xi: derivative of h |> xi along h = exp(t eta)."""
        xi = self.G.algebra_vector(xi)
        eta = self.H.algebra_vector(eta)
        return fd_curve(lambda t: self.act_alg_g(self.H.exp(t * eta), xi))

    def act_alg_h_from_xi(self, eta, xi):
        """eta <| xi: derivative of eta <| g along g = exp(t xi)."""
        xi = self.G.algebra_vector(xi)
        eta = self.H.algebra_vector(eta)
        return fd_curve(lambda t: self.act_alg_h(eta, self.G.exp(t * xi)))

    def Ad(self, u, w):
        return self.Ad_of_inverse(self.inv(u), w)

    def Ad_of_inverse(self, u, w):
        """Ad at the inverse of u, assembled from the component groups:
        the G part is h^-1 |> zeta and the H part combines the dagger field
        of zeta at h^-1 with Ad_{h^-1}(eta <| g), where
        zeta = Ad_{g^-1}(xi) + TL_{g^-1}(eta |> g)."""
        g, h = self.split(u)
        xi, eta = self.split_alg(self.algebra_vector(w))
        ginv = self.G.inv(g)
        hinv = self.H.inv(h)
        dg = self.dagger_g(eta, g)
        zeta = self.G.Ad(ginv, xi) + self.G.tangent_to_algebra(
            self.G.tangent_translation("left", ginv, g, dg)
        )
        part_g = self.act_alg_g(hinv, zeta)
        v = self.dagger_h(hinv, zeta)
        part_h = self.H.tangent_to_algebra(
            self.H.tangent_translation("right", h, hinv, v)
        ) + self.H.Ad(hinv, self.act_alg_h(eta, g))
        return self.join_alg(part_g, part_h)

    def Ad_generic(self, u, w):
        return Group.Ad(self, u, w)

    # -- invariant vector fields ---------------------------------------------

    def left_field(self, u, w):
        """Value at u of the left-invariant field generated by w."""
        g, h = self.split(u)
        xi, eta = self.split_alg(self.algebra_vector(w))
        vg = self.G.lift_matrix("left", g) @ self.act_alg_g(h, xi)
        vh = self.dagger_h(h, xi) + self.H.lift_matrix("left", h) @ eta
        return np.concatenate([vg, vh])

    def right_field(self, u, w):
        """Value at u of the right-invariant field generated by w."""
        g, h = self.split(u)
        xi, eta = self.split_alg(self.algebra_vector(w))
        vg = self.G.lift_matrix("right", g) @ xi + self.dagger_g(eta, g)
        vh = self.H.lift_matrix("right", h) @ self.act_alg_h(eta, g)
        return np.concatenate([vg, vh])

    def lift_matrix(self, side, u):
        field = self.left_field if side == "left" else self.right_field
        return np.column_stack([field(u, e) for e in np.eye(self.dim)])

    # -- compatibility checks ------------------------------------------------

    def axiom_report(self, rng, n_samples=20):
        """Max deviation of each matched-pair compatibility condition over
        random samples.  Keys name the condition."""
        G, H = self.G, self.H
        eG, eH = G.identity(), H.identity()
        dev = {
            "left_action_cocycle": 0.0,
            "right_action_cocycle": 0.0,
            "left_action_of_identity": 0.0,
            "right_action_on_identity": 0.0,
            "left_action_on_identity": 0.0,
            "right_action_of_identity": 0.0,
            "left_action_compose": 0.0,
            "right_action_compose": 0.0,
            "product_associative": 0.0,
            "product_inverse": 0.0,
            "bracket_jacobi": 0.0,
        }

        def upd(key, a, b):
            dev[key] = max(dev[key], float(np.max(np.abs(
                np.asarray(a) - np.asarray(b)))))

        for _ in range(n_samples):
            g, g1, g2 = G.random(rng), G.random(rng), G.random(rng)
            h, h1, h2 = H.random(rng), H.random(rng), H.random(rng)
            upd("left_action_cocycle",
                self.act_on_g(h, G.mul(g1, g2)),
                G.mul(self.act_on_g(h, g1),
                      self.act_on_g(self.act_on_h(h, g1), g2)))
            upd("right_action_cocycle",
                self.act_on_h(H.mul(h1, h2), g),
                H.mul(self.act_on_h(h1, self.act_on_g(h2, g)),
                      self.act_on_h(h2, g)))
            upd("left_action_of_identity", self.act_on_g(eH, g), g)
            upd("right_action_on_identity", self.act_on_h(h, eG), h)
            upd("left_action_on_identity", self.act_on_g(h, eG), eG)
            upd("right_action_of_identity", self.act_on_h(eH, g), eH)
            upd("left_action_compose",
                self.act_on_g(h1, self.act_on_g(h2, g)),
                self.act_on_g(H.mul(h1, h2), g))
            upd("right_action_compose",
                self.act_on_h(self.act_on_h(h, g1), g2),
                self.act_on_h(h, G.mul(g1, g2)))
            u1 = self.join(g1, h1)
            u2 = self.join(g2, h2)
            u3 = self.join(g, h)
            upd("product_associative",
                self.mul(self.mul(u1, u2), u3),
                self.mul(u1, self.mul(u2, u3)))
            upd("product_inverse", self.mul(u1, self.inv(u1)), self.identity())
            x = self.random_algebra(rng)
            y = self.random_algebra(rng)
            z = self.random_algebra(rng)
            jac = (self.bracket(x, self.bracket(y, z))
                   + self.bracket(y, self.bracket(z, x))
                   + self.bracket(z, self.bracket(x, y)))
            upd("bracket_jacobi", jac, np.zeros(self.dim))
        return dev

    def axiom_check(self, rng, n_samples=20, tol=1e-8):
        report = self.axiom_report(rng, n_samples)
        for key, val in report.items():
            if val > tol:
                raise MatchedAxiomError(key, val)
        return report


# ---------------------------------------------------------------------------
# SU(2) bowtie K: the matched pair underlying SL(2, C)
# ---------------------------------------------------------------------------

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
E3 = np.array([0.0, 0.0, 1.0])


class Su2K(MatchedPairGroup):
    """SU(2) and K acting on each other through the factorization of
    SL(2, C) into (unitary) x (lower triangular, positive diagonal).

    Every product B * A of a triangular factor and a unitary factor
    refactorizes as (B |> A)(B <| A); those two maps are the mutual actions.
    All induced operators carry closed forms; the generic finite-difference
    versions remain available for cross-checking.
    """

    def __init__(self):
        super().__init__(SU2(), KGroup(), name="su2_bowtie_k")

    # -- group-level actions -------------------------------------------------

    def act_on_g(self, h, g):
        """B |> A: the unitary factor of mat2(B) @ mat2(A)."""
        Bm = self.H.mat2(h)
        Am = self.G.mat2(g)
        T1 = Bm @ Am @ E22
        T2 = np.linalg.inv(Bm.conj().T) @ Am @ E11
        n = np.sqrt(np.trace(T1.conj().T @ T1).real)
        return self.G.from_mat2(T1 / n + T2 / n)

    def act_on_h(self, h, g):
        """B <| A: the triangular factor of mat2(B) @ mat2(A), in the
        (a, b, c) chart: the component s*e3 along the axis is preserved and
        the rest rotates by the inverse of rot_of(B |> A)."""
        B = self.H.element(h)
        s = float(B @ B) / (2.0 * (1.0 + B[2]))
        R = self.G.rot_of(self.act_on_g(h, g))
        return s * E3 + R.T @ (B - s * E3)

    def act_on_g_decomp(self, h, g):
        """B |> A through the explicit matrix refactorization."""
        return self.decompose(self.H.mat2(h) @ self.G.mat2(g))[0]

    def act_on_h_decomp(self, h, g):
        return self.decompose(self.H.mat2(h) @ self.G.mat2(g))[1]

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

    def _b_tilde(self, h):
        B = self.H.element(h)
        c = B[2]
        return B / (c + 1.0) - (float(B @ B) / (2.0 * (c + 1.0) ** 2)) * E3

    # -- closed-form infinitesimal actions -----------------------------------

    def act_alg_g(self, h, xi):
        # B |> X = mat3(B) X
        return self.H.mat3(h) @ self.G.algebra_vector(xi)

    def dagger_h(self, h, xi):
        # X^dagger(B) = T r_B (B~ x (B |> X)), with T r_B = (1+c) Id in the
        # (a, b, c) chart
        c = self.H.element(h)[2]
        return (1.0 + c) * np.cross(self._b_tilde(h), self.act_alg_g(h, xi))

    def dagger_g(self, eta, g):
        # Y^dagger(A) = T r_A (Y x (Ad_A e3 - e3)) as a quaternion tangent
        w = np.cross(self.H.algebra_vector(eta),
                     self.G.rot_of(g) @ E3 - E3)
        return quat_mul(np.concatenate(([0.0], 0.5 * w)), g)

    def act_alg_h(self, eta, g):
        # Y <| A = rot_of(A)^T Y
        return self.G.rot_of(g).T @ self.H.algebra_vector(eta)

    # -- closed-form transposes ----------------------------------------------

    def tr_star(self, mu, h):
        return self.H.mat3(h).T @ np.asarray(mu, dtype=float)

    def a_star(self, h, psi):
        c = self.H.element(h)[2]
        return self.H.mat3(h).T @ np.cross(
            (1.0 + c) * np.asarray(psi, dtype=float), self._b_tilde(h))

    def b_star(self, g, phi):
        return np.cross(self.G.rot_of(g) @ E3 - E3,
                        self.G.cotangent_to_algebra("right", g, phi))

    def g_star(self, g, nu):
        return self.G.rot_of(g) @ np.asarray(nu, dtype=float)


# ---------------------------------------------------------------------------
# degenerate matched pairs (one or both actions trivial)
# ---------------------------------------------------------------------------

def right_trivial_pair():
    """Translations of R^3 matched with SO(3) rotating them: the action of
    G on H is trivial, giving a semidirect product R^3 x| SO(3)."""
    so3 = SO3()
    return MatchedPairGroup(
        Abelian(3), so3,
        act_on_g=lambda h, g: np.asarray(h).reshape(3, 3) @ np.asarray(g),
        act_on_h=lambda h, g: np.asarray(h, dtype=float),
        name="r3_rtimes_so3",
    )


def left_trivial_pair():
    """SO(3) matched with R^3 carried along by the inverse rotation: the
    action of H on G is trivial, giving a semidirect product SO(3) |x R^3."""
    so3 = SO3()
    return MatchedPairGroup(
        so3, Abelian(3),
        act_on_g=lambda h, g: np.asarray(g, dtype=float),
        act_on_h=lambda h, g: np.asarray(g).reshape(3, 3).T @ np.asarray(h),
        name="so3_ltimes_r3",
    )


def both_trivial_pair():
    """Direct product of two copies of SO(3)."""
    so3a, so3b = SO3(), SO3()
    return MatchedPairGroup(
        so3a, so3b,
        act_on_g=lambda h, g: np.asarray(g, dtype=float),
        act_on_h=lambda h, g: np.asarray(h, dtype=float),
        name="so3_times_so3",
    )
