import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdyn import groupoids, groups
from matchdyn.errors import DomainError, TagError
from matchdyn.groupoids import MatchedPairGroupoid
from matchdyn.groups import Abelian, SO3
from matchdyn.matched_group import (
    POINT_BASE,
    MatchedPairGroup,
    Su2K,
    both_trivial_pair,
    left_trivial_pair,
    right_trivial_pair,
)
from reference import (central_jacobian, k_mat2, sl2c_compose,
                       sl2c_decompose, su2_from_mat2, su2_mat2)

RNG = np.random.default_rng(20240818)

PAIRS = [Su2K(), right_trivial_pair(), left_trivial_pair(), both_trivial_pair()]


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_axiom_report_clean(M):
    report = M.axiom_report(np.random.default_rng(3), n_samples=10)
    assert max(report.values()) < 1e-6


def test_axiom_check_catches_bad_pair():
    # rotate by h but scale as well: breaks the left action laws
    bad = MatchedPairGroup(
        Abelian(3), SO3(),
        actions=lambda h, g: (2.0 * np.asarray(h).reshape(3, 3)
                              @ np.asarray(g), np.asarray(h, dtype=float)),
    )
    report = bad.axiom_report(np.random.default_rng(0), n_samples=3)
    assert report["ii_left_action_compose"] > 1e-8
    assert report["iii_left_action_unit"] > 1e-8


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
        g2, h2 = sl2c_decompose(sl2c_compose(g, h))
        assert np.allclose(g2, g, atol=1e-10)
        assert np.allclose(h2, h, atol=1e-10)


def test_su2k_refactorization_defines_actions():
    # B * A refactorizes as (B |> A)(B <| A) in SL(2, C)
    M = Su2K()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        P = k_mat2(h) @ su2_mat2(g)
        Q = sl2c_compose(*M.actions(h, g))
        assert np.allclose(P, Q, atol=1e-10)


def act_on_g_decomp(M, h, g):
    """B |> A through the explicit matrix refactorization."""
    return sl2c_decompose(k_mat2(h) @ su2_mat2(g))[0]


def act_on_h_decomp(M, h, g):
    return sl2c_decompose(k_mat2(h) @ su2_mat2(g))[1]


def test_su2k_closed_actions_match_decomposition():
    M = Su2K()
    for _ in range(10):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        hg, hh = M.actions(h, g)
        assert np.allclose(hg, act_on_g_decomp(M, h, g), atol=1e-10)
        assert np.allclose(hh, act_on_h_decomp(M, h, g), atol=1e-10)


def act_on_g_matrix_reference(M, h, g):
    """B |> A through SL(2, C) matrices: the second column of B A and the
    first column of B^-H A, both over the norm of the former, are the
    unitary factor's columns."""
    Bm = k_mat2(h)
    Am = su2_mat2(g)
    T1 = Bm @ Am @ np.diag([0.0, 1.0])
    T2 = np.linalg.inv(Bm.conj().T) @ Am @ np.diag([1.0, 0.0])
    n = np.sqrt(np.trace(T1.conj().T @ T1).real)
    return su2_from_mat2(T1 / n + T2 / n)


def act_on_h_matrix_reference(M, h, g):
    """B <| A from act_on_g_matrix_reference's rotation."""
    B = M.H.check(h)
    e3 = np.array([0.0, 0.0, 1.0])
    s = float(B @ B) / (2.0 * (1.0 + B[2]))
    R = M.G.rot_of(act_on_g_matrix_reference(M, h, g))
    return s * e3 + R.T @ (B - s * e3)


UNIT_AXES = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=200, deadline=None)
@given(angle=st.floats(0.0, 2.0 * np.pi), axis=UNIT_AXES,
       a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0),
       c=st.floats(-0.95, 20.0))
def test_su2k_column_actions_match_matrix_reference(angle, axis, a, b, c):
    # over the whole K chart and every rotation angle
    M = Su2K()
    g = M.G.exp(angle * np.asarray(axis) / np.linalg.norm(axis))
    h = np.array([a, b, c])
    hg, hh = M.actions(h, g)
    assert np.max(np.abs(hg - act_on_g_matrix_reference(M, h, g))) <= 1e-14
    assert (np.max(np.abs(hh - act_on_h_matrix_reference(M, h, g)))
            <= 1e-13 * (1.0 + np.max(np.abs(h))))


@pytest.mark.parametrize("c", [-1.0, -1.5, -20.0])
def test_su2k_actions_reject_points_off_the_k_chart(c):
    M = Su2K()
    g = M.G.exp([0.3, -0.2, 0.1])
    with pytest.raises(DomainError):
        M.actions(np.array([0.1, 0.2, c]), g)
    with pytest.raises(TagError):
        M.actions(np.array([0.1, 0.2, 0.3]), g[:3])


def test_su2k_mul_matches_sl2c_product():
    M = Su2K()
    for _ in range(5):
        u1, u2 = M.random(RNG), M.random(RNG)
        P = sl2c_compose(*M.split(u1)) @ sl2c_compose(*M.split(u2))
        prod = M.mul(u1, u2)
        assert np.allclose(sl2c_compose(*M.split(prod)), P, atol=1e-9)


def test_su2k_closed_infinitesimal_actions():
    M = Su2K()
    F = M.generic()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        for closed, fd in zip(M.g_fiber_actions(h) + M.h_fiber_actions(g),
                              F.g_fiber_actions(h) + F.h_fiber_actions(g)):
            assert np.allclose(closed, fd, atol=1e-8)


DEGENERATE = [right_trivial_pair(), left_trivial_pair(), both_trivial_pair()]


@pytest.mark.parametrize("M", DEGENERATE, ids=lambda m: m.name)
def test_degenerate_pairs_closed_infinitesimal_actions(M):
    # against the groupoid's finite differences, block by block, on the
    # points each pair takes: h on the G-fiber, g on the H-fiber
    rng = np.random.default_rng(35)
    for _ in range(10):
        g, h = M.split(M.random(rng, sigma=1.0))
        for pair, x in (("g_fiber_actions", h), ("h_fiber_actions", g)):
            for closed, fd in zip(getattr(M, pair)(x),
                                  getattr(MatchedPairGroupoid, pair)(M, x)):
                assert closed.shape == fd.shape
                assert np.max(np.abs(closed - fd)) <= 1e-9


def test_induced_action_pairs_are_the_two_fiber_stencils():
    # each pair is one stencil of actions for both of its blocks: 2 calls
    # per fiber direction
    F = Su2K().generic()
    actions, calls = F.actions, []

    def counted(h, g):
        calls.append(1)
        return actions(h, g)

    F.actions = counted
    g, h = F.split(F.random(RNG))
    F.g_fiber_actions(h)
    assert len(calls) == 2 * F.G.dim == 6
    calls.clear()
    F.h_fiber_actions(g)
    assert len(calls) == 2 * F.H.dim == 6


def test_su2k_mul_and_inv_refactorize_once():
    M = Su2K()
    actions, calls = M.actions, []

    def counted(h, g):
        calls.append(1)
        return actions(h, g)

    M.actions = counted
    u, v = M.random(RNG), M.random(RNG)
    M.mul(u, v)
    assert len(calls) == 1
    M.inv(u)
    assert len(calls) == 2


def test_su2k_closed_transposes():
    # the dual actions on covectors, as the momentum recursion applies them
    M = Su2K()
    F = M.generic()
    for _ in range(5):
        g = M.G.random(RNG)
        h = M.H.random(RNG)
        mu = RNG.standard_normal(3)
        nu = RNG.standard_normal(3)
        phi = RNG.standard_normal(4)
        psi = RNG.standard_normal(3)
        for closed, fd, covector in zip(
                M.g_fiber_actions(h) + M.h_fiber_actions(g),
                F.g_fiber_actions(h) + F.h_fiber_actions(g),
                (mu, psi, phi, nu)):
            assert np.allclose(closed.T @ covector, fd.T @ covector,
                               atol=1e-8)


@pytest.mark.parametrize("side", ["left", "right"])
def test_su2k_lift_matrix_uses_closed_actions(side, monkeypatch):
    # the matched lift block is the factor lifts and the two closed induced
    # action pairs, with no finite differences anywhere
    def forbidden(*args, **kwargs):
        raise AssertionError("finite differences in a closed lift")

    for module in (groups, groupoids):
        monkeypatch.setattr(module, "fd_curve_columns", forbidden)
    M = Su2K()
    u = M.random(RNG)
    g, h = M.split(u)
    lift = M.lift_matrix(side, u)
    lg, lh = M.G.lift_matrix(side, g), M.H.lift_matrix(side, h)
    z34 = np.zeros((4, 3))
    z33 = np.zeros((3, 3))
    if side == "left":
        A_g, D_h = M.g_fiber_actions(h)
        block = np.block([[lg @ A_g, z34], [D_h, lh]])
    else:
        D_g, A_h = M.h_fiber_actions(g)
        block = np.block([[lg, -D_g], [z33, lh @ A_h]])
    assert np.array_equal(lift, block)


def test_su2k_closed_right_lift_is_the_groupoid_one_bit_for_bit():
    # one SU(2) right lift and one rotation feed the factor and dagger
    # blocks through the same products as the groupoid's three blocks:
    # seeded points, near the identity (q near 1) and near q = -1, with
    # zero entries of either sign
    rng = np.random.default_rng(34)
    M = Su2K()
    points = [M.random(rng, sigma) for sigma in (1e-9, 0.5, 2.0)
              for _ in range(100)]
    for _ in range(100):
        g, h = M.split(M.random(rng, 1e-6))
        points.append(M.join(-g, h))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        points.append(M.join(M.G.exp((2.0 * np.pi - 1e-7) * axis), h))
    points += [M.identity(), np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
               np.array([-1.0, -0.0, 0.0, -0.0, -0.0, 0.5, -0.0]),
               np.array([0.0, 0.0, -0.0, 1.0, 0.3, -0.0, 2.0])]
    for u in points:
        closed = M.right_lift(u)
        ref = MatchedPairGroupoid.right_lift(M, u)
        assert np.array_equal(closed, ref)
        assert np.array_equal(np.signbit(closed), np.signbit(ref))


def test_su2k_operations_are_the_generic_ones_bit_for_bit():
    # the product and inverse of every pair are MatchedPairGroupoid's own,
    # and so are the lifts but Su2K's closed right lift, which
    # test_su2k_closed_right_lift_is_the_groupoid_one_bit_for_bit checks bit
    # for bit; here MatchedPairGroup's fiber chart (exp_G, exp_H) must match
    # the groupoid's chart over a point
    rng = np.random.default_rng(46)
    for M in PAIRS:
        for _ in range(100):
            z = 1.5 * rng.standard_normal(M.fiber_dim)
            assert np.array_equal(
                M.fiber_elem(POINT_BASE, z),
                MatchedPairGroupoid.fiber_elem(M, POINT_BASE, z))


def test_su2k_inverse_rejects_an_inverse_that_rounds_off_the_k_chart():
    # c = 1e17 inverts to -c / (1 + c), which rounds onto -1
    M = Su2K()
    u = np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1e17])
    with pytest.raises(DomainError, match="<= -1"):
        M.inv(u)


def test_su2k_groupoid_runs_the_matched_axiom_suite():
    # over a point the source and target checks compare empty arrays
    report = Su2K().matched_axiom_report(np.random.default_rng(4),
                                         n_samples=5)
    assert report["i_source_of_left_action"] == 0.0
    assert max(report.values()) < 1e-9


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_bracket_matches_ad_derivative(M):
    from matchdyn.numerics import fd_curve

    for _ in range(3):
        x = M.random_algebra(RNG, sigma=0.7)
        y = M.random_algebra(RNG, sigma=0.7)
        num = fd_curve(lambda t: M.Ad_matrix(M.exp(t * x)) @ y)
        assert np.allclose(M.bracket(x, y), num, atol=2e-5)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_invariant_fields_translate_correctly(M):
    # left field pushes forward under left translation, right field under
    # right translation
    for _ in range(2):
        u = M.random(RNG)
        v = M.random(RNG)
        w = M.random_algebra(RNG)
        J = central_jacobian(lambda x: M.mul(v, x), u)
        assert np.allclose(J @ M.lift_matrix("left", u) @ w,
                           M.lift_matrix("left", M.mul(v, u)) @ w, atol=5e-5)
        J = central_jacobian(lambda x: M.mul(x, v), u)
        assert np.allclose(J @ M.lift_matrix("right", u) @ w,
                           M.lift_matrix("right", M.mul(u, v)) @ w, atol=5e-5)


@pytest.mark.parametrize("M", PAIRS, ids=lambda m: m.name)
def test_fields_at_identity_equal_generator(M):
    from matchdyn.numerics import fd_curve

    w = M.random_algebra(RNG)
    e = M.identity()
    generator = fd_curve(lambda t: M.exp(t * w))
    assert np.allclose(M.lift_matrix("left", e) @ w, generator, atol=1e-7)
    assert np.allclose(M.lift_matrix("right", e) @ w, generator, atol=1e-7)


def test_degenerate_pairs_reduce_to_known_products():
    # with both actions trivial, mul is componentwise
    M = both_trivial_pair()
    u1, u2 = M.random(RNG), M.random(RNG)
    g1, h1 = M.split(u1)
    g2, h2 = M.split(u2)
    assert np.allclose(M.mul(u1, u2),
                       M.join(M.G.mul(g1, g2), M.H.mul(h1, h2)))
    # R^3 x| SO(3): (g1, h1)(g2, h2) = (g1 + R_{h1} g2, h1 h2)
    S = right_trivial_pair()
    u1, u2 = S.random(RNG), S.random(RNG)
    g1, h1 = S.split(u1)
    g2, h2 = S.split(u2)
    expect = S.join(g1 + h1.reshape(3, 3) @ g2, S.H.mul(h1, h2))
    assert np.allclose(S.mul(u1, u2), expect)
