import numpy as np
import pytest

from matchdyn.errors import MatchedAxiomError
from matchdyn.groups import Abelian, SO3
from matchdyn.matched_group import (
    MatchedPairGroup,
    Su2K,
    both_trivial_pair,
    left_trivial_pair,
    right_trivial_pair,
)

RNG = np.random.default_rng(20240818)

PAIRS = [Su2K(), right_trivial_pair(), left_trivial_pair(), both_trivial_pair()]


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_axiom_report_clean(M):
    report = M.axiom_check(np.random.default_rng(3), n_samples=10, tol=1e-6)
    assert max(report.values()) < 1e-6


def test_axiom_check_catches_bad_pair():
    # rotate by h but scale as well: breaks the left action cocycle
    bad = MatchedPairGroup(
        Abelian(3), SO3(),
        act_on_g=lambda h, g: 2.0 * np.asarray(h).reshape(3, 3) @ np.asarray(g),
        act_on_h=lambda h, g: np.asarray(h, dtype=float),
    )
    with pytest.raises(MatchedAxiomError):
        bad.axiom_check(np.random.default_rng(0), n_samples=3)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_product_group_axioms(M):
    for _ in range(5):
        a, b, c = M.random(RNG), M.random(RNG), M.random(RNG)
        assert np.allclose(M.mul(M.mul(a, b), c), M.mul(a, M.mul(b, c)),
                           atol=1e-9)
        assert np.allclose(M.mul(a, M.inv(a)), M.identity(), atol=1e-9)
        assert np.allclose(M.mul(M.identity(), a), a, atol=1e-12)


def test_su2k_factorization_roundtrip():
    M = Su2K()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        g2, h2 = M.decompose(M.compose(g, h))
        assert np.allclose(g2, g, atol=1e-10)
        assert np.allclose(h2, h, atol=1e-10)


def test_su2k_refactorization_defines_actions():
    # B * A refactorizes as (B |> A)(B <| A) in SL(2, C)
    M = Su2K()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        P = M.H.mat2(h) @ M.G.mat2(g)
        Q = M.compose(M.act_on_g(h, g), M.act_on_h(h, g))
        assert np.allclose(P, Q, atol=1e-10)


def test_su2k_closed_actions_match_decomposition():
    M = Su2K()
    for _ in range(10):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        assert np.allclose(M.act_on_g(h, g), M.act_on_g_decomp(h, g), atol=1e-10)
        assert np.allclose(M.act_on_h(h, g), M.act_on_h_decomp(h, g), atol=1e-10)


def test_su2k_mul_matches_sl2c_product():
    M = Su2K()
    for _ in range(5):
        u1, u2 = M.random(RNG), M.random(RNG)
        P = (M.compose(*M.split(u1)) @ M.compose(*M.split(u2)))
        prod = M.mul(u1, u2)
        assert np.allclose(M.compose(*M.split(prod)), P, atol=1e-9)


def test_su2k_closed_infinitesimal_actions():
    M = Su2K()
    F = M.generic()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        xi = M.G.random_algebra(RNG)
        eta = M.H.random_algebra(RNG)
        assert np.allclose(M.act_alg_g(h) @ xi, F.act_alg_g(h) @ xi, atol=1e-8)
        assert np.allclose(M.dagger_h(h) @ xi, F.dagger_h(h) @ xi, atol=1e-8)
        assert np.allclose(M.dagger_g(g) @ eta, F.dagger_g(g) @ eta, atol=1e-8)
        assert np.allclose(M.act_alg_h(g) @ eta, F.act_alg_h(g) @ eta, atol=1e-8)


def test_su2k_closed_transposes():
    M = Su2K()
    F = M.generic()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        mu = RNG.standard_normal(3)
        nu = RNG.standard_normal(3)
        phi = RNG.standard_normal(4)
        psi = RNG.standard_normal(3)
        assert np.allclose(M.tr_star(mu, h), F.tr_star(mu, h), atol=1e-8)
        assert np.allclose(M.a_star(h, psi), F.a_star(h, psi), atol=1e-8)
        assert np.allclose(M.b_star(g, phi), F.b_star(g, phi), atol=1e-8)
        assert np.allclose(M.g_star(g, nu), F.g_star(g, nu), atol=1e-8)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_transpose_duality(M):
    for _ in range(3):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        xi = M.G.random_algebra(RNG)
        eta = M.H.random_algebra(RNG)
        mu = RNG.standard_normal(M.G.dim)
        nu = RNG.standard_normal(M.H.dim)
        phi = RNG.standard_normal(M.G.coord_dim)
        psi = RNG.standard_normal(M.H.coord_dim)
        assert abs(float(mu @ M.act_alg_g(h) @ xi) - float(M.tr_star(mu, h) @ xi)) < 1e-8
        assert abs(float(psi @ M.dagger_h(h) @ xi) - float(M.a_star(h, psi) @ xi)) < 1e-8
        assert abs(float(phi @ M.dagger_g(g) @ eta) - float(M.b_star(g, phi) @ eta)) < 1e-8
        assert abs(float(nu @ M.act_alg_h(g) @ eta) - float(M.g_star(g, nu) @ eta)) < 1e-8


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_bracket_matches_ad_derivative(M):
    from matchdyn.numerics import fd_curve

    for _ in range(3):
        x = M.random_algebra(RNG, sigma=0.7)
        y = M.random_algebra(RNG, sigma=0.7)
        num = fd_curve(lambda t: M.Ad(M.exp(t * x), y))
        assert np.allclose(M.bracket(x, y), num, atol=2e-5)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_closed_ad_matches_generic(M):
    for _ in range(3):
        u = M.random(RNG)
        w = M.random_algebra(RNG)
        assert np.allclose(M.Ad(u, w), M.Ad_generic(u, w), atol=1e-6)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_invariant_fields_translate_correctly(M):
    # left field pushes forward under left translation, right field under
    # right translation
    from matchdyn.numerics import fd_jacobian

    for _ in range(2):
        u = M.random(RNG)
        v = M.random(RNG)
        w = M.random_algebra(RNG)
        J = fd_jacobian(lambda x: M.mul(v, x), u)
        assert np.allclose(J @ M.lift_matrix("left", u) @ w,
                           M.lift_matrix("left", M.mul(v, u)) @ w, atol=5e-5)
        J = fd_jacobian(lambda x: M.mul(x, v), u)
        assert np.allclose(J @ M.lift_matrix("right", u) @ w,
                           M.lift_matrix("right", M.mul(u, v)) @ w, atol=5e-5)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_fields_at_identity_equal_generator(M):
    w = M.random_algebra(RNG)
    e = M.identity()
    assert np.allclose(M.tangent_to_algebra(M.lift_matrix("left", e) @ w), w,
                       atol=1e-7)
    assert np.allclose(M.tangent_to_algebra(M.lift_matrix("right", e) @ w), w,
                       atol=1e-7)


def test_degenerate_pairs_reduce_to_known_products():
    # with both actions trivial, mul is componentwise
    M = both_trivial_pair()
    u1, u2 = M.random(RNG), M.random(RNG)
    g1, h1 = M.split(u1)
    g2, h2 = M.split(u2)
    assert np.allclose(M.mul(u1, u2),
                       M.join(M.G.mul(g1, g2), M.H.mul(h1, h2)))
    # right-trivial pair: (g1, h1)(g2, h2) = (g1 + R_{h1} g2, h1 h2)
    S = right_trivial_pair()
    u1, u2 = S.random(RNG), S.random(RNG)
    g1, h1 = S.split(u1)
    g2, h2 = S.split(u2)
    expect = S.join(g1 + h1.reshape(3, 3) @ g2, S.H.mul(h1, h2))
    assert np.allclose(S.mul(u1, u2), expect)
