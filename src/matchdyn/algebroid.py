"""Algebroid fibers of the groupoid descriptors and the vector fields built
from them.

A fiber element at a base point b is stored in the descriptor's fiber-chart
coordinates, so it automatically lies in the kernel of the source map's
tangent.  Invariant vector fields come in two flavors: a generic path that
differentiates curves through the groupoid product, and the descriptor's own
lift matrices (``left_lift`` / ``right_lift``) applied to the fiber
coordinates.  The generic path is the oracle; the lift matrices are what the
solvers call.  The induced actions of a matched pair read from the matrices
that ``MatchedPairGroupoid`` differentiates once per arrow.
"""
from __future__ import annotations

import numpy as np

from .errors import BasePointMismatch, TagError
from .groupoids import (
    ActionGroupoid,
    GroupGroupoid,
    Groupoid,
    MatchedPairGroupoid,
    TrivialDecomposition,
)
from .numerics import fd_curve

BASE_TOL = 1e-9


class AlgebroidVector:
    """Fiber element of a groupoid's algebroid at base point b.

    z holds the fiber-chart coordinates (length desc.fiber_dim); the ambient
    representative at eps(b) is fiber_tangent_matrix(b) @ z.
    """

    def __init__(self, desc: Groupoid, b, z):
        self.desc = desc
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.z.size != desc.fiber_dim:
            raise TagError("fiber vector has size %d, expected %d for %s"
                           % (self.z.size, desc.fiber_dim, desc.name))

    @property
    def ambient(self):
        return self.desc.fiber_tangent_matrix(self.b) @ self.z

    def __add__(self, other):
        self._same_fiber(other)
        return AlgebroidVector(self.desc, self.b, self.z + other.z)

    def __sub__(self, other):
        self._same_fiber(other)
        return AlgebroidVector(self.desc, self.b, self.z - other.z)

    def __rmul__(self, c):
        return AlgebroidVector(self.desc, self.b, float(c) * self.z)

    def _same_fiber(self, other):
        if other.desc is not self.desc:
            raise TagError("fiber vectors belong to different descriptors")
        _require_base(self.b, other.b)

    def __repr__(self):
        return "AlgebroidVector(%s, b=%s, z=%s)" % (self.desc.name, self.b,
                                                    self.z)


def _require_base(b1, b2):
    b1 = np.atleast_1d(np.asarray(b1, dtype=float))
    b2 = np.atleast_1d(np.asarray(b2, dtype=float))
    if b1.size and float(np.max(np.abs(b1 - b2))) > BASE_TOL:
        raise BasePointMismatch("base points %s and %s disagree" % (b1, b2))


# ---------------------------------------------------------------------------
# invariant vector fields
# ---------------------------------------------------------------------------

def left_invariant_generic(desc, X: AlgebroidVector, g):
    """d/dt g . c(t) at t = 0, with c the fiber curve through eps(beta(g))
    tangent to X."""
    g = desc.check(g)
    _require_base(desc.beta(g), X.b)
    return fd_curve(lambda t: desc.mul(g, desc.fiber_elem(X.b, t * X.z)))


def right_invariant_generic(desc, X: AlgebroidVector, g):
    """-d/dt x(t)^{-1} . g at t = 0, with x the fiber curve through
    eps(alpha(g)) tangent to X."""
    g = desc.check(g)
    _require_base(desc.alpha(g), X.b)
    return -fd_curve(
        lambda t: desc.mul(desc.inv(desc.fiber_elem(X.b, t * X.z)), g))


def left_invariant(desc, X: AlgebroidVector, g):
    """Value at g of the left invariant vector field extending X."""
    g = desc.check(g)
    _require_base(desc.beta(g), X.b)
    return desc.left_lift(g) @ X.z


def right_invariant(desc, X: AlgebroidVector, g):
    """Value at g of the right invariant vector field extending X."""
    g = desc.check(g)
    _require_base(desc.alpha(g), X.b)
    return desc.right_lift(g) @ X.z


def infinitesimal_action(desc: ActionGroupoid, m, xi):
    """Velocity of m under the one-parameter flow of xi through the action."""
    return desc.orbit_matrix(m) @ np.asarray(xi, dtype=float)


def anchor(desc, X: AlgebroidVector):
    """Pushforward of X under the target map; a vector tangent to the base."""
    if desc.base.dim == 0:
        return np.zeros(0)
    return fd_curve(lambda t: desc.beta(desc.fiber_elem(X.b, t * X.z)))


def algebroid_bracket(desc, X: AlgebroidVector, Y: AlgebroidVector):
    """Fiber bracket; available for the group case only, where it is the Lie
    algebra bracket.  Other descriptors would need section data that the
    fiber elements do not carry."""
    if not isinstance(desc, GroupGroupoid):
        raise TagError("fiber bracket requires a group descriptor, got %s"
                       % desc.name)
    _require_base(X.b, Y.b)
    return AlgebroidVector(desc, X.b, desc.G.bracket(X.z, Y.z))


# ---------------------------------------------------------------------------
# induced infinitesimal actions of a matched pair
# ---------------------------------------------------------------------------

def act_on_fiber_g(md: MatchedPairGroupoid, h, X: AlgebroidVector):
    """h |> X: push a G-fiber vector at beta(h) to a G-fiber vector at
    alpha(h) through the left action."""
    h = np.asarray(h, dtype=float)
    _require_base(md.Hd.beta(h), X.b)
    return AlgebroidVector(md.Gd, md.Hd.alpha(h),
                           md.act_on_fiber_g_matrix(h) @ X.z)


def dagger_on_h(md: MatchedPairGroupoid, X: AlgebroidVector, h):
    """X^dagger(h): tangent vector at h generated by the right action of the
    G-fiber flow at beta(h)."""
    h = np.asarray(h, dtype=float)
    _require_base(md.Hd.beta(h), X.b)
    return md.dagger_on_h_matrix(h) @ X.z


def dagger_on_g(md: MatchedPairGroupoid, Y: AlgebroidVector, g):
    """Y^dagger(g): tangent vector at g, d/dt (y_t^{-1} |> g) for the H-fiber
    flow y_t at alpha(g)."""
    g = np.asarray(g, dtype=float)
    _require_base(md.Gd.alpha(g), Y.b)
    return md.dagger_on_g_matrix(g) @ Y.z


def act_on_fiber_h(md: MatchedPairGroupoid, Y: AlgebroidVector, g):
    """Y <| g: H-fiber vector at beta(g), d/dt (y_t^{-1} <| g)^{-1}."""
    g = np.asarray(g, dtype=float)
    _require_base(md.Gd.alpha(g), Y.b)
    return AlgebroidVector(md.Hd, md.Gd.beta(g),
                           md.act_on_fiber_h_matrix(g) @ Y.z)


# ---------------------------------------------------------------------------
# the sum-to-matched isomorphism and matched invariant fields
# ---------------------------------------------------------------------------

def iso_sum_to_matched(md: MatchedPairGroupoid, X: AlgebroidVector,
                       Y: AlgebroidVector) -> AlgebroidVector:
    """(X, Y) -> matched fiber vector at the common base point.

    The matched fiber chart threads the H factor through the target of the G
    factor, so in chart coordinates the identification is the plain
    concatenation; the target correction T(eps_H . beta)X shows up in the
    ambient representative automatically.
    """
    _require_base(X.b, Y.b)
    if X.desc is not md.Gd or Y.desc is not md.Hd:
        raise TagError("iso expects fiber vectors of the two factors")
    return AlgebroidVector(md, X.b, np.concatenate([X.z, Y.z]))


def iso_matched_to_sum(md: MatchedPairGroupoid, U: AlgebroidVector):
    zg, zh = md.split_fiber(U.z)
    return (AlgebroidVector(md.Gd, U.b, zg),
            AlgebroidVector(md.Hd, U.b, zh))


def target_correction(md: MatchedPairGroupoid, X: AlgebroidVector):
    """T(eps_H . beta_G) X, the ambient H-component the iso adds to the G
    summand; used to cross-check the chart-level identification."""
    return fd_curve(lambda t: md.Hd.eps(
        md.Gd.beta(md.Gd.fiber_elem(X.b, t * X.z))))


# The matched-pair fields need no code of their own: MatchedPairGroupoid
# assembles its lift matrices from the factor lifts and the induced actions.
matched_left_invariant = left_invariant
matched_right_invariant = right_invariant


# ---------------------------------------------------------------------------
# trivial-groupoid correspondence
# ---------------------------------------------------------------------------

def a_phi(dec: TrivialDecomposition, X: AlgebroidVector) -> AlgebroidVector:
    """Fiber-level counterpart of the arrow identification phi:
    (theta, xi, Y) at m maps to (xi; xi^dagger(m), Y) in the matched fiber.

    In chart coordinates the matched H component absorbs the target
    correction, so zH = Y - xi^dagger(m).
    """
    if X.desc is not dec.trivial:
        raise TagError("a_phi expects a trivial-groupoid fiber vector")
    xi = X.z[: dec.G.dim]
    Y = X.z[dec.G.dim:]
    dag = infinitesimal_action(dec.actiond, X.b, xi)
    return AlgebroidVector(dec.matched, X.b, np.concatenate([xi, Y - dag]))


def a_phi_inv(dec: TrivialDecomposition, U: AlgebroidVector) -> AlgebroidVector:
    if U.desc is not dec.matched:
        raise TagError("a_phi_inv expects a matched fiber vector")
    zg, zh = dec.matched.split_fiber(U.z)
    dag = infinitesimal_action(dec.actiond, U.b, zg)
    return AlgebroidVector(dec.trivial, U.b, np.concatenate([zg, zh + dag]))
