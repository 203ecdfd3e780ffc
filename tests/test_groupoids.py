from functools import partial

import numpy as np
import pytest

from matchdyn.dynamics import del_step
from matchdyn.errors import DomainError, NotComposable
from matchdyn.groupoids import (
    ActionGroupoid,
    Chart,
    GroupGroupoid,
    MatchedPairGroupoid,
    TrivialDecomposition,
    default_trivial_decomposition,
    record_deviation,
)
from matchdyn.groups import SU2, Circle, rot2
from matchdyn.scenarios import (
    ScenarioConfig,
    matched_lagrangian,
    trivial_groupoid_lagrangian,
)
from reference import central_jacobian, compose

RNG = np.random.default_rng(20240819)

DEC = default_trivial_decomposition()

ALL_DESCS = [
    GroupGroupoid(SU2()),
    DEC.paird,
    DEC.actiond,
    DEC.trivial,
    DEC.matched,
]


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_groupoid_axioms(desc):
    report = desc.axiom_report(np.random.default_rng(5), n_samples=30)
    assert max(report.values()) < 1e-9, report


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_fiber_chart_through_unit(desc):
    b = desc.random_base(RNG)
    assert np.allclose(desc.fiber_elem(b, np.zeros(desc.fiber_dim)),
                       desc.eps(b), atol=1e-12)
    z = RNG.standard_normal(desc.fiber_dim)
    x = desc.fiber_elem(b, z)
    if desc.base.dim:
        assert np.allclose(desc.alpha(x), b, atol=1e-12)
    assert np.allclose(desc.arrow_coords(x), z, atol=1e-9)


@pytest.mark.parametrize("desc", ALL_DESCS, ids=lambda d: d.name)
def test_fiber_tangent_kills_source(desc):
    if desc.base.dim == 0:
        return
    b = desc.random_base(RNG)
    E = desc.fiber_tangent_matrix(b)
    J = central_jacobian(desc.alpha, desc.eps(b))
    assert np.max(np.abs(J @ E)) < 1e-9


def test_compose_and_certificates():
    d = DEC.paird
    x = np.array([0.0, 0.0, 1.0, 0.0])
    y = np.array([1.0, 0.0, 2.0, 0.0])
    assert np.allclose(compose(d, x, y), [0.0, 0.0, 2.0, 0.0])
    bad = np.array([1.1, 0.0, 2.0, 0.0])
    with pytest.raises(NotComposable) as e:
        compose(d, x, bad)
    assert np.allclose(e.value.beta_x, [1.0, 0.0])


def test_pair_product_example():
    d = DEC.paird
    m, mp, npt = RNG.standard_normal(2), RNG.standard_normal(2), RNG.standard_normal(2)
    out = compose(d, np.concatenate([m, mp]), np.concatenate([mp, npt]))
    assert np.allclose(out, np.concatenate([m, npt]))


def test_trivial_product_example():
    d = DEC.trivial
    m, mp, npt = RNG.standard_normal(2), RNG.standard_normal(2), RNG.standard_normal(2)
    g1 = np.array([0.3])
    g2 = np.array([-1.1])
    x = np.concatenate([m, g1, mp])
    y = np.concatenate([mp, g2, npt])
    assert np.allclose(compose(d, x, y), np.concatenate([m, g1 + g2, npt]))


def test_action_groupoid_with_trivial_action_is_group_bundle():
    M = Chart(2, name="r2")
    d = ActionGroupoid(M, Circle(), lambda m, g: np.asarray(m, dtype=float))
    m = RNG.standard_normal(2)
    x = np.concatenate([m, [0.4]])
    y = np.concatenate([m, [0.5]])
    assert np.allclose(compose(d, x, y), np.concatenate([m, [0.9]]))


def test_unit_and_inverse_laws_spot():
    for desc in ALL_DESCS:
        x = desc.random_arrow(RNG)
        assert np.allclose(compose(desc, x, desc.eps(desc.beta(x))), x,
                           atol=1e-10)
        assert np.allclose(compose(desc, x, desc.inv(x)),
                           desc.eps(desc.alpha(x)), atol=1e-10)


def test_matched_axioms_trivial_decomposition():
    report = DEC.matched.matched_axiom_report(np.random.default_rng(2),
                                              n_samples=30)
    assert max(report.values()) < 1e-9


def test_matched_axioms_negative_control():
    # corrupt the right action: (m', m) <| (m, g) := (m', m) keeps the pair
    # fixed, breaking the target-exchange condition (vii)
    bad = MatchedPairGroupoid(
        DEC.actiond, DEC.paird,
        actions=lambda h, g: (DEC._actions(h, g)[0],
                              np.asarray(h, dtype=float)),
    )
    report = bad.matched_axiom_report(np.random.default_rng(2), n_samples=10)
    assert report["vii_target_source_exchange"] > 1e-3


def test_axiom_check_matched_function():
    report = MatchedPairGroupoid(DEC.actiond, DEC.paird,
                                 DEC._actions).matched_axiom_report(
        np.random.default_rng(0), n_samples=10)
    assert max(report.values()) < 1e-9


def test_matched_product_matches_displayed_form():
    # (m,g;mg,m') (m',h;m'h,n) = (m,gh;mgh,n)
    d = DEC.matched
    m = RNG.standard_normal(2)
    g = np.array([0.7])
    mp = RNG.standard_normal(2)
    h = np.array([-0.4])
    n = RNG.standard_normal(2)
    x = DEC.phi(np.concatenate([m, g, mp]))
    y = DEC.phi(np.concatenate([mp, h, n]))
    assert np.allclose(compose(d, x, y),
                       DEC.phi(np.concatenate([m, g + h, n])), atol=1e-12)


def test_matched_inversion_displayed_form():
    # (m,g;mg,n)^{-1} = (n,g^{-1};ng^{-1},m)
    d = DEC.matched
    m, n = RNG.standard_normal(2), RNG.standard_normal(2)
    g = np.array([0.9])
    x = DEC.phi(np.concatenate([m, g, n]))
    assert np.allclose(d.inv(x), DEC.phi(np.concatenate([n, -g, m])),
                       atol=1e-12)


def test_phi_is_morphism():
    d = DEC.matched
    t = DEC.trivial
    for _ in range(10):
        x = t.random_arrow(RNG)
        y = t.random_with_source(t.beta(x), RNG)
        lhs = DEC.phi(compose(t, x, y))
        rhs = compose(d, DEC.phi(x), DEC.phi(y))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        assert np.allclose(d.alpha(DEC.phi(x)), t.alpha(x))
        assert np.allclose(d.beta(DEC.phi(x)), t.beta(x))
    b = RNG.standard_normal(2)
    assert np.allclose(DEC.phi(t.eps(b)), d.eps(b))


def test_phi_identity_arrow():
    m = RNG.standard_normal(2)
    x = DEC.phi(np.concatenate([m, [0.0], m]))
    assert np.allclose(x, DEC.matched.eps(m))


def test_phi_roundtrip_bulk():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x = np.concatenate([rng.standard_normal(2), rng.standard_normal(1),
                            rng.standard_normal(2)])
        assert np.array_equal(DEC.phi_inv(DEC.phi(x)), x)


def test_phi_rejects_bad_coordinates():
    with pytest.raises(DomainError):
        DEC.phi(np.zeros(4))


def test_prop_embeddings_are_morphisms():
    # g -> (g, eps(beta(g))) and h -> (eps(alpha(h)), h), and the mixed
    # product reassembles (g, h)
    d = DEC.matched
    Gd, Hd = DEC.actiond, DEC.paird

    def emb_g(g):
        return d.join(g, Hd.eps(Gd.beta(g)))

    def emb_h(h):
        return d.join(Gd.eps(Hd.alpha(h)), h)

    for _ in range(10):
        g = Gd.random_arrow(RNG)
        g2 = Gd.random_with_source(Gd.beta(g), RNG)
        assert np.max(np.abs(compose(d, emb_g(g), emb_g(g2))
                             - emb_g(compose(Gd, g, g2)))) < 1e-10
        h = Hd.random_arrow(RNG)
        h2 = Hd.random_with_source(Hd.beta(h), RNG)
        assert np.max(np.abs(compose(d, emb_h(h), emb_h(h2))
                             - emb_h(compose(Hd, h, h2)))) < 1e-10
        h3 = Hd.random_with_source(Gd.beta(g), RNG)
        assert np.allclose(compose(d, emb_g(g), emb_h(h3)), d.join(g, h3),
                           atol=1e-12)


def groupoid_action_check(desc, f, action, sampler, rng, n_samples=50):
    """Check that `action` is a right groupoid action of desc on the map f.

    sampler(rng) must yield points p of the acted-on space; arrows are drawn
    with source f(p).  Reports max violations of the moment-map condition,
    the mixed associativity, and the unit law.
    """
    dev = {"moment_map": 0.0, "mixed_associativity": 0.0, "unit_law": 0.0}
    upd = partial(record_deviation, dev)
    for _ in range(n_samples):
        p = sampler(rng)
        g = desc.random_with_source(f(p), rng)
        g2 = desc.random_with_source(desc.beta(g), rng)
        upd("moment_map", f(action(p, g)), desc.beta(g))
        upd("mixed_associativity",
            action(action(p, g), g2), action(p, desc.mul(g, g2)))
        upd("unit_law", action(p, desc.eps(f(p))), p)
    return dev


def test_groupoid_action_check_positive():
    # a groupoid acts on its own target map by right multiplication
    desc = DEC.actiond
    report = groupoid_action_check(
        desc, f=desc.alpha,
        action=lambda p, g: desc.beta(g),
        sampler=lambda rng: rng.standard_normal(2),
        rng=np.random.default_rng(1), n_samples=20)
    assert max(report.values()) < 1e-9


def test_groupoid_action_check_pair_action():
    # (m', m) <| (m, g) = (m'g, mg) as an action of M x G on beta of M x M
    desc = DEC.actiond
    paird = DEC.paird

    def action(p, g):
        return DEC._actions(p, g)[1]

    report = groupoid_action_check(
        desc, f=paird.beta, action=action,
        sampler=lambda rng: rng.standard_normal(4),
        rng=np.random.default_rng(1), n_samples=20)
    assert max(report.values()) < 1e-9


def test_groupoid_action_check_negative():
    # an action that fixes the point cannot satisfy the moment map law
    desc = DEC.actiond
    paird = DEC.paird
    report = groupoid_action_check(
        desc, f=paird.beta, action=lambda p, g: np.asarray(p, dtype=float),
        sampler=lambda rng: rng.standard_normal(4),
        rng=np.random.default_rng(1), n_samples=20)
    assert report["moment_map"] > 1e-3


def test_source_target_laws_matched():
    d = DEC.matched
    for _ in range(20):
        x = d.random_arrow(RNG)
        y = d.random_with_source(d.beta(x), RNG)
        xy = compose(d, x, y)
        assert np.max(np.abs(d.alpha(xy) - d.alpha(x))) < 1e-10
        assert np.max(np.abs(d.beta(xy) - d.beta(y))) < 1e-10


# -- closed induced actions of the trivial decomposition ----------------------

def general_action_decomposition():
    """The rotation of the plane as a plain action: every matrix is taken by
    finite differences of ``action`` alone."""
    return TrivialDecomposition(ActionGroupoid(
        Chart(2, name="r2"), Circle(),
        lambda m, g: rot2(float(g[0])) @ np.asarray(m)))


# each block of the two induced-action pairs: the pair, the block's index
# in it and the factor the pair reads; an id names the block's matrix
INDUCED_ACTIONS = [
    pytest.param("g_fiber_actions", 0, "h", id="act_on_fiber_g_matrix-h"),
    pytest.param("g_fiber_actions", 1, "h", id="dagger_on_h_matrix-h"),
    pytest.param("h_fiber_actions", 0, "g", id="dagger_on_g_matrix-g"),
    pytest.param("h_fiber_actions", 1, "g", id="act_on_fiber_h_matrix-g")]


@pytest.mark.parametrize("pair,block,arg", INDUCED_ACTIONS)
def test_orbit_pair_matches_the_finite_difference_induced_actions(pair, block,
                                                                   arg):
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = (DEC.paird if arg == "h" else DEC.actiond).random_arrow(
            rng, sigma=2.0)
        closed = getattr(DEC.matched, pair)(x)[block]
        fd = getattr(MatchedPairGroupoid, pair)(DEC.matched, x)[block]
        assert closed.shape == fd.shape
        assert np.max(np.abs(closed - fd)) <= 1e-9


def test_orbit_pair_operations_are_the_generic_ones_bit_for_bit():
    plain = MatchedPairGroupoid(DEC.actiond, DEC.paird, DEC._actions)
    general = general_action_decomposition().actiond
    rng = np.random.default_rng(44)
    for _ in range(250):
        x = plain.random_arrow(rng, sigma=2.0)
        y = plain.random_with_source(plain.beta(x), rng, sigma=2.0)
        b, z = 2.0 * rng.standard_normal(2), 2.0 * rng.standard_normal(3)
        assert np.array_equal(DEC.matched.mul(x, y), plain.mul(x, y))
        assert np.array_equal(DEC.matched.inv(x), plain.inv(x))
        assert np.array_equal(DEC.matched.fiber_elem(b, z),
                              plain.fiber_elem(b, z))
        assert np.array_equal(DEC.actiond.act(b, z[:1]),
                              general.act(b, z[:1]))
        assert np.array_equal(DEC.phi_inv(x),
                              np.concatenate([x[:3], x[5:]]))


def test_rotated_plane_matches_the_finite_difference_action_derivatives():
    rng = np.random.default_rng(42)
    d = DEC.actiond
    for _ in range(20):
        m, theta = 2.0 * rng.standard_normal(2), 4.0 * rng.standard_normal(1)
        assert np.max(np.abs(d.orbit_matrix(m)
                             - ActionGroupoid.orbit_matrix(d, m))) <= 1e-9
        assert np.max(np.abs(d.push_matrix(m, theta)
                             - ActionGroupoid.push_matrix(d, m, theta))) \
            <= 1e-9


def test_general_action_takes_the_finite_difference_matrices():
    general = general_action_decomposition()
    rng = np.random.default_rng(43)
    for _ in range(10):
        h = DEC.paird.random_arrow(rng)
        g = DEC.actiond.random_arrow(rng)
        for pair, x in (("g_fiber_actions", h), ("h_fiber_actions", g)):
            for fd, closed in zip(getattr(general.matched, pair)(x),
                                  getattr(DEC.matched, pair)(x)):
                assert np.max(np.abs(fd - closed)) <= 1e-9


def test_general_action_step_matches_the_closed_one():
    general = general_action_decomposition()
    x0 = np.array([0.3, -0.2, 0.5, 1.1, 0.4])
    config = ScenarioConfig("trivial_groupoid",
                            params={"k_pos": 1.3, "k_rot": 0.7})
    steps = []
    for dec in (DEC, general):
        L = matched_lagrangian(dec, trivial_groupoid_lagrangian(dec, config))
        steps.append(del_step(dec.matched, L, dec.phi(x0))[0])
    assert np.max(np.abs(steps[0] - steps[1])) <= 1e-9


def test_trivial_decomposition_shares_its_group():
    # the finite-difference re-check of old files swaps dec.G's lift matrix,
    # and the direct presentation has to see it
    assert DEC.trivial.G is DEC.G is DEC.actiond.G
    assert DEC.trivial.M is DEC.M is DEC.actiond.M
