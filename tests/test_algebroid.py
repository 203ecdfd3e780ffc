import numpy as np
import pytest

from matchdyn.algebroid import (
    AlgebroidVector,
    a_phi,
    a_phi_inv,
    act_on_fiber_g,
    act_on_fiber_h,
    anchor,
    dagger_on_g,
    dagger_on_h,
    infinitesimal_action,
    iso_matched_to_sum,
    iso_sum_to_matched,
    left_invariant,
    left_invariant_generic,
    matched_left_invariant,
    matched_right_invariant,
    right_invariant,
    right_invariant_generic,
)
from matchdyn.errors import BasePointMismatch, TagError
from matchdyn.groupoids import (
    GroupGroupoid,
    MatchedPairGroupoid,
    default_trivial_decomposition,
)
from matchdyn.groups import SU2, KGroup, rot2
from matchdyn.matched_group import (Su2K, both_trivial_pair,
                                    left_trivial_pair, right_trivial_pair)
from matchdyn.numerics import fd_curve, fd_jacobian

RNG = np.random.default_rng(20240820)

DEC = default_trivial_decomposition()

ALL_DESCS = [
    GroupGroupoid(SU2()),
    DEC.paird,
    DEC.actiond,
    DEC.trivial,
    DEC.matched,
    # matched pairs of groups: their curve-based generic fields differentiate
    # the product itself, the independent check of the six-term lifts
    Su2K(),
    right_trivial_pair(),
    left_trivial_pair(),
    both_trivial_pair(),
]


def rand_fiber(desc, b, rng, sigma=0.8):
    return AlgebroidVector(desc, b, sigma * rng.standard_normal(desc.fiber_dim))


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_closed_fields_match_curve_formulas(desc):
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = desc.random_arrow(rng)
        X = rand_fiber(desc, desc.beta(g), rng)
        assert np.allclose(left_invariant(desc, X, g),
                           left_invariant_generic(desc, X, g), atol=1e-7)
        X = rand_fiber(desc, desc.alpha(g), rng)
        assert np.allclose(right_invariant(desc, X, g),
                           right_invariant_generic(desc, X, g), atol=1e-7)
    assert desc.left_lift(g).shape == (desc.arrow_dim, desc.fiber_dim)
    assert desc.right_lift(g).shape == (desc.arrow_dim, desc.fiber_dim)


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_left_field_at_unit_is_the_fiber_vector(desc):
    b = desc.random_base(RNG)
    X = rand_fiber(desc, b, RNG)
    assert np.allclose(left_invariant(desc, X, desc.eps(b)), X.ambient,
                       atol=1e-8)


def test_group_right_field_at_identity():
    desc = GroupGroupoid(SU2())
    xi = RNG.standard_normal(3)
    X = AlgebroidVector(desc, np.zeros(0), xi)
    v = right_invariant(desc, X, desc.G.identity())
    assert np.allclose(v, fd_curve(lambda t: desc.G.exp(t * xi)), atol=1e-9)


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_invariance_laws(desc):
    rng = np.random.default_rng(7)
    for _ in range(5):
        g1 = desc.random_arrow(rng)
        g2 = desc.random_with_source(desc.beta(g1), rng)
        prod = desc.mul(g1, g2)
        X = rand_fiber(desc, desc.beta(g2), rng)
        J = fd_jacobian(lambda y: desc.mul(g1, y), g2)
        assert np.allclose(left_invariant(desc, X, prod),
                           J @ left_invariant(desc, X, g2), atol=1e-6)
        X = rand_fiber(desc, desc.alpha(g1), rng)
        J = fd_jacobian(lambda y: desc.mul(y, g2), g1)
        assert np.allclose(right_invariant(desc, X, prod),
                           J @ right_invariant(desc, X, g1), atol=1e-6)


def test_base_point_mismatch_raises():
    desc = DEC.paird
    g = desc.random_arrow(RNG)
    X = rand_fiber(desc, desc.beta(g) + 1.0, RNG)
    with pytest.raises(BasePointMismatch):
        left_invariant(desc, X, g)
    with pytest.raises(BasePointMismatch):
        right_invariant(desc, X, g)


def test_pair_groupoid_closed_forms():
    desc = DEC.paird
    g = desc.random_arrow(RNG)
    X = rand_fiber(desc, desc.beta(g), RNG)
    assert np.allclose(left_invariant(desc, X, g),
                       np.concatenate([np.zeros(2), X.z]))
    X = rand_fiber(desc, desc.alpha(g), RNG)
    assert np.allclose(right_invariant(desc, X, g),
                       np.concatenate([-X.z, np.zeros(2)]))


def test_action_groupoid_right_field_pushes_the_point():
    desc = DEC.actiond
    g = desc.random_arrow(RNG)
    m = desc.alpha(g)
    X = rand_fiber(desc, m, RNG)
    v = right_invariant(desc, X, g)
    assert np.allclose(v[:2], -infinitesimal_action(desc, m, X.z), atol=1e-9)


def test_anchor():
    gd = GroupGroupoid(SU2())
    X = rand_fiber(gd, np.zeros(0), RNG)
    assert anchor(gd, X).size == 0

    pd = DEC.paird
    b = pd.random_base(RNG)
    X = rand_fiber(pd, b, RNG)
    assert np.allclose(anchor(pd, X), X.z, atol=1e-9)

    ad = DEC.actiond
    b = ad.random_base(RNG)
    X = rand_fiber(ad, b, RNG)
    assert np.allclose(anchor(ad, X), infinitesimal_action(ad, b, X.z),
                       atol=1e-8)


# -- induced actions --------------------------------------------------------

def test_unit_arrows_act_trivially_on_fibers():
    md = DEC.matched
    b = md.random_base(RNG)
    X = rand_fiber(md.Gd, b, RNG)
    hX = act_on_fiber_g(md, md.Hd.eps(b), X)
    assert np.allclose(hX.z, X.z, atol=1e-9)
    Y = rand_fiber(md.Hd, b, RNG)
    Yg = act_on_fiber_h(md, Y, md.Gd.eps(b))
    assert np.allclose(Yg.z, Y.z, atol=1e-9)


def test_induced_actions_trivial_instance_closed_values():
    # pair arrows move the base point of a G-fiber vector without touching
    # its angular part; G arrows rotate the displacement of a pair vector
    md = DEC.matched
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = md.Hd.random_arrow(rng)
        X = rand_fiber(md.Gd, md.Hd.beta(h), rng)
        assert np.allclose(act_on_fiber_g(md, h, X).z, X.z, atol=1e-9)

        g = md.Gd.random_arrow(rng)
        m = md.Gd.alpha(g)
        theta = float(md.Gd.split(g)[1][0])
        W = rand_fiber(md.Hd, m, rng)
        # Y^dagger(g) translates the base point of the arrow
        assert np.allclose(dagger_on_g(md, W, g),
                           np.concatenate([W.z, np.zeros(1)]), atol=1e-8)
        # Y <| g rotates the displacement by the arrow's group element
        assert np.allclose(act_on_fiber_h(md, W, g).z, rot2(theta) @ W.z,
                           atol=1e-8)

        h2 = md.Hd.random_arrow(rng)
        X2 = rand_fiber(md.Gd, md.Hd.beta(h2), rng)
        # X^dagger(h) pushes both endpoints with the infinitesimal action
        mp_, m2 = md.Hd.alpha(h2), md.Hd.beta(h2)
        expect = np.concatenate([
            infinitesimal_action(md.Gd, mp_, X2.z),
            infinitesimal_action(md.Gd, m2, X2.z),
        ])
        assert np.allclose(dagger_on_h(md, X2, h2), expect, atol=1e-8)


# -- isomorphism and matched fields -----------------------------------------

def target_correction(md, X):
    """T(eps_H . beta_G) X, the ambient H-component the iso adds to the G
    summand; used to cross-check the chart-level identification."""
    return fd_curve(lambda t: md.Hd.eps(
        md.Gd.beta(md.Gd.fiber_elem(X.b, t * X.z))))


def test_iso_roundtrip_and_ambient_correction():
    md = DEC.matched
    rng = np.random.default_rng(9)
    for _ in range(500):
        b = md.random_base(rng)
        X = rand_fiber(md.Gd, b, rng)
        Y = rand_fiber(md.Hd, b, rng)
        U = iso_sum_to_matched(md, X, Y)
        X2, Y2 = iso_matched_to_sum(md, U)
        assert np.max(np.abs(X2.z - X.z)) < 1e-10
        assert np.max(np.abs(Y2.z - Y.z)) < 1e-10
    # ambient representative carries the target correction on the H side
    b = md.random_base(RNG)
    X = rand_fiber(md.Gd, b, RNG)
    Y = rand_fiber(md.Hd, b, RNG)
    amb = iso_sum_to_matched(md, X, Y).ambient
    nG = md.Gd.arrow_dim
    assert np.allclose(amb[:nG], X.ambient, atol=1e-8)
    assert np.allclose(amb[nG:], target_correction(md, X) + Y.ambient,
                       atol=1e-8)


def test_iso_trivial_instance_display():
    # (theta, xi) + (theta, W) -> (theta, xi; xi^dagger(m), W + xi^dagger(m))
    md = DEC.matched
    b = md.random_base(RNG)
    xi = RNG.standard_normal(1)
    W = RNG.standard_normal(2)
    amb = iso_sum_to_matched(md, AlgebroidVector(md.Gd, b, xi),
                             AlgebroidVector(md.Hd, b, W)).ambient
    dag = infinitesimal_action(md.Gd, b, xi)
    expect = np.concatenate([np.zeros(2), xi, dag, W + dag])
    assert np.allclose(amb, expect, atol=1e-8)


def test_iso_restricted_to_summands_is_a_morphism_pair():
    # the G summand lands as (X, target correction); the H summand embeds
    # with zero G part
    md = DEC.matched
    b = md.random_base(RNG)
    Y = rand_fiber(md.Hd, b, RNG)
    zero = AlgebroidVector(md.Gd, b, np.zeros(md.Gd.fiber_dim))
    amb = iso_sum_to_matched(md, zero, Y).ambient
    assert np.allclose(amb, np.concatenate([np.zeros(md.Gd.arrow_dim),
                                            Y.ambient]), atol=1e-10)


def test_matched_fields_at_unit():
    md = DEC.matched
    b = md.random_base(RNG)
    U = rand_fiber(md, b, RNG)
    assert np.allclose(matched_left_invariant(md, U, md.eps(b)), U.ambient,
                       atol=1e-8)


def test_matched_fields_reduce_to_group_fields():
    # the matched groupoid over a point differentiates the actions by finite
    # differences; the group fields here are assembled from Su2K's closed
    # induced-action matrices
    mp = Su2K()
    G, H = mp.G, mp.H
    Gd = GroupGroupoid(G)
    Hd = GroupGroupoid(H)
    md = MatchedPairGroupoid(Gd, Hd, act_on_g=mp.act_on_g,
                             act_on_h=mp.act_on_h)
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = mp.random(rng)
        w = mp.random_algebra(rng)
        g, h = mp.split(u)
        xi, eta = mp.split_fiber(w)
        left = np.concatenate([
            G.lift_matrix("left", g) @ mp.act_on_fiber_g_matrix(h) @ xi,
            mp.dagger_on_h_matrix(h) @ xi + H.lift_matrix("left", h) @ eta])
        right = np.concatenate([
            G.lift_matrix("right", g) @ xi - mp.dagger_on_g_matrix(g) @ eta,
            H.lift_matrix("right", h) @ mp.act_on_fiber_h_matrix(g) @ eta])
        U = AlgebroidVector(md, np.zeros(0), w)
        assert np.allclose(matched_left_invariant(md, U, u), left, atol=1e-6)
        assert np.allclose(matched_right_invariant(md, U, u), right,
                           atol=1e-6)


# -- trivial-groupoid correspondence ----------------------------------------

def test_a_phi_linear_and_invertible():
    t = DEC.trivial
    b = RNG.standard_normal(2)
    u = rand_fiber(t, b, RNG)
    v = rand_fiber(t, b, RNG)
    assert np.allclose(a_phi(DEC, u + v).z, a_phi(DEC, u).z + a_phi(DEC, v).z,
                       atol=1e-12)
    back = a_phi_inv(DEC, a_phi(DEC, u))
    assert np.allclose(back.z, u.z, atol=1e-10)
    with pytest.raises(TagError):
        a_phi(DEC, rand_fiber(DEC.matched, b, RNG))


def test_a_phi_zero_rotation_gives_pure_pair_vector():
    b = RNG.standard_normal(2)
    W = RNG.standard_normal(2)
    U = a_phi(DEC, AlgebroidVector(DEC.trivial, b,
                                   np.concatenate([[0.0], W])))
    assert np.allclose(U.z, np.concatenate([[0.0], W]))


def test_a_phi_intertwines_left_fields():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = DEC.trivial.random_arrow(rng)
        b = DEC.trivial.beta(x)
        U = rand_fiber(DEC.trivial, b, rng)
        J = fd_jacobian(DEC.phi, x)
        lhs = J @ left_invariant(DEC.trivial, U, x)
        rhs = matched_left_invariant(DEC.matched, a_phi(DEC, U), DEC.phi(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_a_phi_intertwines_right_fields():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = DEC.trivial.random_arrow(rng)
        b = DEC.trivial.alpha(x)
        U = rand_fiber(DEC.trivial, b, rng)
        J = fd_jacobian(DEC.phi, x)
        lhs = J @ right_invariant(DEC.trivial, U, x)
        rhs = matched_right_invariant(DEC.matched, a_phi(DEC, U), DEC.phi(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-7
