import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matchdyn.dynamics import Trajectory, solver_failure
from matchdyn.errors import DomainError, MatchdynError, NoConvergence, TagError
from matchdyn.groupoids import GroupGroupoid
from matchdyn.groups import (
    NEAR_PI_COS,
    SO3,
    SU2,
    Abelian,
    Circle,
    Group,
    KGroup,
    _vec,
    hat3,
    rot2,
)
from matchdyn.matched_group import Su2K
from reference import (k_alg_from_mat3, k_alg_mat2, k_alg_mat3, k_from_mat2,
                       k_from_mat3, k_mat2, k_mat3, su2_alg_from_mat2,
                       su2_alg_mat2, su2_from_mat2, su2_mat2)

RNG = np.random.default_rng(20240817)

ALL_GROUPS = [SU2(), KGroup(), SO3(), Circle(), Abelian(3)]


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms(G):
    for _ in range(5):
        a, b, c = G.random(RNG), G.random(RNG), G.random(RNG)
        e = G.identity()
        assert np.allclose(G.mul(G.mul(a, b), c), G.mul(a, G.mul(b, c)), atol=1e-10)
        assert np.allclose(G.mul(a, e), a, atol=1e-12)
        assert np.allclose(G.mul(e, a), a, atol=1e-12)
        assert np.allclose(G.mul(a, G.inv(a)), e, atol=1e-10)


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_exp_log_roundtrip(G):
    for _ in range(5):
        xi = G.random_algebra(RNG, sigma=0.6)
        assert np.allclose(G.log(G.exp(xi)), xi, atol=1e-9)


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_ad_matches_generic(G):
    # the closed Ad_matrix against the finite-difference Group.Ad_matrix
    for _ in range(5):
        g = G.random(RNG)
        assert np.max(np.abs(G.Ad_matrix(g) - Group.Ad_matrix(G, g))) <= 1e-6


def test_k_ad_matrix_is_the_mat3_conjugation():
    K = KGroup()
    for _ in range(5):
        g = K.random(RNG)
        M, Minv = k_mat3(g), k_mat3(K.inv(g))
        conj = np.column_stack([k_alg_from_mat3(M @ k_alg_mat3(e) @ Minv)
                                for e in np.eye(3)])
        assert np.max(np.abs(K.Ad_matrix(g) - conj)) <= 1e-13


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_bracket_from_ad_derivative(G):
    # [x, y] = d/dt Ad(exp(t x)) y at t = 0
    from matchdyn.numerics import fd_curve

    for _ in range(3):
        x = G.random_algebra(RNG)
        y = G.random_algebra(RNG)
        num = fd_curve(lambda t: G.Ad_matrix(G.exp(t * x)) @ y)
        assert np.allclose(G.bracket(x, y), num, atol=1e-6)


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_coAd_pairing(G):
    # <coAd(g, mu), xi> = <mu, Ad(g, xi)>
    for _ in range(5):
        g = G.random(RNG)
        xi = G.random_algebra(RNG)
        mu = G.random_algebra(RNG)
        assert abs(float(G.coAd(g, mu) @ xi)
                   - float(mu @ (G.Ad_matrix(g) @ xi))) < 1e-9


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_coAd_antihomomorphism(G):
    for _ in range(3):
        a, b = G.random(RNG), G.random(RNG)
        mu = G.random_algebra(RNG)
        assert np.allclose(
            G.coAd(G.mul(a, b), mu), G.coAd(b, G.coAd(a, mu)), atol=1e-8
        )


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_lift_matrix_and_cotangent(G):
    for _ in range(3):
        g = G.random(RNG)
        xi = G.random_algebra(RNG)
        mu = RNG.standard_normal(G.coord_dim)
        for side in ("left", "right"):
            lifted = G.lift_matrix(side, g) @ xi
            pulled = G.lift_matrix(side, g).T @ mu
            assert abs(float(mu @ lifted) - float(pulled @ xi)) < 1e-8


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda g: g.name)
def test_closed_lift_matrix_matches_finite_differences(G, side):
    for g in [G.identity()] + [G.random(RNG, sigma=1.0) for _ in range(5)]:
        closed = G.lift_matrix(side, g)
        assert closed.shape == (G.coord_dim, G.dim)
        assert np.max(np.abs(closed - Group.lift_matrix(G, side, g))) <= 1e-9


# -- SU(2) specifics --------------------------------------------------------


def test_su2_exp_half_angle():
    G = SU2()
    # rotating by 2*pi about e3 lands on the antipodal quaternion
    q = G.exp(np.array([0.0, 0.0, 2.0 * np.pi]))
    assert np.allclose(q, [-1.0, 0.0, 0.0, 0.0], atol=1e-12)
    # but the induced rotation is the identity
    assert np.allclose(G.rot_of(q), np.eye(3), atol=1e-12)


def test_su2_bracket_is_cross():
    G = SU2()
    e1, e2, e3 = np.eye(3)
    assert np.allclose(G.bracket(e1, e2), e3)


def test_su2_rot_is_homomorphism():
    G = SU2()
    for _ in range(5):
        a, b = G.random(RNG), G.random(RNG)
        assert np.allclose(G.rot_of(G.mul(a, b)), G.rot_of(a) @ G.rot_of(b),
                           atol=1e-12)


def test_su2_mat2_roundtrip():
    G = SU2()
    for _ in range(5):
        q = G.random(RNG)
        U = su2_mat2(q)
        assert abs(np.linalg.det(U) - 1.0) < 1e-12
        assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
        assert np.allclose(su2_from_mat2(U), q, atol=1e-12)
        a, b = G.random(RNG), G.random(RNG)
        assert np.allclose(su2_mat2(G.mul(a, b)), su2_mat2(a) @ su2_mat2(b),
                           atol=1e-12)


def test_su2_alg_mat2_roundtrip():
    G = SU2()
    for _ in range(5):
        xi = G.random_algebra(RNG)
        X = su2_alg_mat2(xi)
        assert abs(np.trace(X)) < 1e-14
        assert np.allclose(X.conj().T, -X, atol=1e-14)
        assert np.allclose(su2_alg_from_mat2(X), xi, atol=1e-14)
    # the matrix basis commutators should reproduce the cross product
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    X1, X2 = su2_alg_mat2(e1), su2_alg_mat2(e2)
    C = X1 @ X2 - X2 @ X1
    assert np.allclose(su2_alg_from_mat2(C), G.bracket(e1, e2), atol=1e-14)


def test_su2_check_rejects_nonunit():
    with pytest.raises(DomainError):
        SU2().check(np.array([1.0, 1.0, 0.0, 0.0]))


# -- K specifics ------------------------------------------------------------


def test_k_exp_example():
    G = KGroup()
    t = 0.7
    assert np.allclose(G.exp(t * np.array([0.0, 0.0, 1.0])),
                       [0.0, 0.0, np.expm1(t)], atol=1e-14)


def test_k_mat3_homomorphism():
    G = KGroup()
    for _ in range(5):
        a, b = G.random(RNG), G.random(RNG)
        assert np.allclose(k_mat3(G.mul(a, b)), k_mat3(a) @ k_mat3(b), atol=1e-10)
        assert np.allclose(k_from_mat3(k_mat3(a)), a, atol=1e-12)


def test_k_mat2_homomorphism():
    G = KGroup()
    for _ in range(5):
        a, b = G.random(RNG), G.random(RNG)
        assert np.allclose(k_mat2(G.mul(a, b)), k_mat2(a) @ k_mat2(b),
                           atol=1e-10)
        assert np.allclose(k_from_mat2(k_mat2(a)), a, atol=1e-12)


def k_convert(rep_from, rep_to, value, kind="group"):
    """Transport a K element or algebra vector between its representations
    ('vector' chart, 'mat3', 'mat2')."""
    K = KGroup()
    group = {
        "vector": (lambda v: K.check(v), lambda v: v),
        "mat3": (k_from_mat3, k_mat3),
        "mat2": (k_from_mat2, k_mat2),
    }
    algebra = {
        "vector": (lambda v: _vec(v, 3), lambda v: v),
        "mat3": (k_alg_from_mat3, k_alg_mat3),
        "mat2": (
            lambda M: np.array([M[1, 0].real, M[1, 0].imag, 2.0 * M[0, 0].real]),
            k_alg_mat2,
        ),
    }
    table = group if kind == "group" else algebra
    if rep_from not in table or rep_to not in table:
        raise TagError("unknown K representation")
    to_vec, from_vec = table[rep_from][0], table[rep_to][1]
    return from_vec(to_vec(value))


def test_k_convert_example():
    M = k_convert("vector", "mat3", np.array([1.0, 2.0, 3.0]))
    assert np.allclose(M, [[4, 0, 0], [0, 4, 0], [-1, -2, 1]])
    back = k_convert("mat3", "vector", M)
    assert np.allclose(back, [1.0, 2.0, 3.0])


def test_k_bracket_matches_mat3_commutator():
    G = KGroup()
    for _ in range(5):
        x = G.random_algebra(RNG)
        y = G.random_algebra(RNG)
        C = k_alg_mat3(x) @ k_alg_mat3(y) - k_alg_mat3(y) @ k_alg_mat3(x)
        assert np.allclose(G.bracket(x, y), k_alg_from_mat3(C), atol=1e-12)


def test_k_check_rejects_boundary():
    with pytest.raises(DomainError):
        KGroup().check(np.array([0.0, 0.0, -1.0]))


# -- SO(3) and misc ---------------------------------------------------------


def so3_log_reference(g):
    """SO3.log in matrix form: np.trace, np.clip and the skew part."""
    M = _vec(g, 9).reshape(3, 3)
    cos_t = np.clip(0.5 * (np.trace(M) - 1.0), -1.0, 1.0)
    theta = np.arccos(cos_t)
    w = 0.5 * np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0],
                        M[1, 0] - M[0, 1]])
    if theta < 1e-8:
        return w
    return theta / np.sin(theta) * w


def su2_dlog_reference(g):
    """The Jacobian of SU2.log in matrix form: np.column_stack, np.eye and
    np.outer."""
    g = _vec(g, 4)
    w, v = g[0], g[1:]
    vn = math.sqrt(v @ v)
    if vn < 1e-14:
        return np.column_stack([np.zeros(3), 2.0 / w * np.eye(3)])
    r2 = w * w + vn * vn
    s = 2.0 * np.arctan2(vn, w) / vn
    u = v / vn
    return np.column_stack([-2.0 * v / r2, s * np.eye(3)
                            + (2.0 * w / r2 - s) * np.outer(u, u)])


def test_su2_dlog_matches_its_matrix_form_bit_for_bit():
    # unit and non-unit quaternions, zero vector entries (whose products
    # k ui uj are signed zeros) and the |v| < 1e-14 ball, with w of either
    # sign; equal bits include the signs of zeros
    rng = np.random.default_rng(48)
    points = []
    for i in range(3000):
        q = rng.standard_normal(4) * [1e-3, 1.0, 10.0][i % 3]
        if i % 2:
            q /= np.linalg.norm(q)
        if i % 5 == 0:
            q[1 + i % 3] = 0.0
        if i % 7 == 0:
            q[1:] *= 1e-15
        points.append(q)
    points += [np.array([w, 0.0, 0.0, 0.0]) for w in (1.0, -1.0, 0.5)]
    for q in points:
        log, new = SU2().log_dlog(q)
        ref = su2_dlog_reference(q)
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))
        assert np.array_equal(log, SU2().log(q))
        assert np.array_equal(np.signbit(log), np.signbit(SU2().log(q)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [0.0, -0.0, 5e-324])
def test_su2_dlog_without_a_limit_is_a_domain_error(w):
    # on the |v| < 1e-14 ball the limit (2 / w) I does not exist at w = 0,
    # nor is it a float where 2 / w overflows: no inf, NaN or warning
    for v in (0.0, 1e-15):
        q = np.array([w, v, 0.0, 0.0])
        with pytest.raises(DomainError, match="no limit at"):
            SU2().log_dlog(q)
        with pytest.raises(NoConvergence):
            with solver_failure("junction solve"):
                SU2().log_dlog(q)


def k_dlog_reference(g):
    """The Jacobian of KGroup.log(A, B, C) = (A phi(C), B phi(C),
    log1p(C)), phi(C) = log1p(C) / C, written out on its own from the numpy
    scalars of check."""
    A, B, C = KGroup().check(g)
    c = np.log1p(C)
    phi = c / C if abs(c) > 1e-8 else 1.0 / (1.0 + 0.5 * c)
    if abs(C) > 1e-4:
        dphi = (C / (1.0 + C) - c) / C**2
    else:
        dphi = -0.5 + C * (2.0 / 3.0 - 0.75 * C)
    return np.array([[phi, 0.0, A * dphi],
                     [0.0, phi, B * dphi],
                     [0.0, 0.0, 1.0 / (1.0 + C)]])


def test_k_log_dlog_is_log_and_its_jacobian_bit_for_bit():
    # both sides of the Taylor branches (|C| = 1e-4 for phi', |log1p C| =
    # 1e-8 for phi), zeros of either sign, C near -1 and large C
    rng = np.random.default_rng(34)
    K = KGroup()
    cs = [0.0, -0.0, 1e-9, -1e-9, 1e-8, -1e-8, 1.0000001e-8, 9.99e-5, 1e-4,
          1.0001e-4, -1e-4, -1.0001e-4, 0.5, -0.5, -1.0 + 1e-12, 1e3, 1e150]
    cs += list(rng.uniform(-0.999, 3.0, 200)) + list(
        rng.standard_normal(100) * 1e-4)
    for C in cs:
        for A, B in [(0.0, -0.0), tuple(rng.standard_normal(2) * 3.0)]:
            g = np.array([A, B, C])
            log, jac = K.log_dlog(g)
            ref = k_dlog_reference(g)
            assert np.array_equal(jac, ref)
            assert np.array_equal(np.signbit(jac), np.signbit(ref))
            assert np.array_equal(log, K.log(g))
            assert np.array_equal(np.signbit(log), np.signbit(K.log(g)))


def vec_reference(x, n):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.size != n:
        raise TagError("expected vector of length %d, got %d" % (n, v.size))
    return v


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: v / np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(0.0, np.pi - 1e-3), axis=unit_axes,
       noise=st.floats(-1e-7, 1e-7))
def test_so3_log_matches_its_matrix_form_bit_for_bit(theta, axis, noise):
    # on and just off the rotation group, below the near-pi branch
    R = SO3().exp(theta * axis) + noise * np.arange(9)
    assume(0.5 * (np.trace(R.reshape(3, 3)) - 1.0) >= NEAR_PI_COS)
    assert np.array_equal(SO3().log(R), so3_log_reference(R))


def test_chart_maps_convert_a_point_once(monkeypatch):
    import matchdyn.groups as groups

    def forbidden(*args, **kwargs):
        raise AssertionError("matrix-form call in a scalar chart map")

    R = SO3().exp([0.3, -1.2, 0.5])
    reference = so3_log_reference(R)
    monkeypatch.setattr(np, "trace", forbidden)
    monkeypatch.setattr(np, "clip", forbidden)
    assert np.array_equal(SO3().log(R), reference)
    calls = []
    monkeypatch.setattr(
        groups, "_vec",
        lambda x, n, **kw: calls.append(n) or _vec(x, n, **kw))
    for G in ALL_GROUPS:
        g, h, xi = G.random(RNG), G.random(RNG), G.random_algebra(RNG)
        assert np.array_equal(G.check(g), g)
        maps = {"check": (G.check, [g]), "exp": (G.exp, [xi]),
                "log": (G.log, [g]), "mul": (G.mul, [g, h]),
                "inv": (G.inv, [g]),
                "left lift": (partial(G.lift_matrix, "left"), [g]),
                "right lift": (partial(G.lift_matrix, "right"), [g]),
                "Ad_matrix": (G.Ad_matrix, [g])}
        for name in ("log_dlog", "rot_of"):
            if hasattr(G, name):
                maps[name] = (getattr(G, name), [g])
        for name, (chart_map, points) in maps.items():
            del calls[:]
            chart_map(*points)
            read = [len(p) for p in points]
            if isinstance(G, KGroup) and name in ("exp", "inv", "mul"):
                read.append(3)  # the point returned, through check
            if isinstance(G, Abelian) and name in ("left lift", "right lift",
                                                   "Ad_matrix"):
                read = []  # constant matrices: the point is never read
            assert calls == read, (G.name, name)


@pytest.mark.parametrize("gap", [4e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9,
                                 0.0])
def test_so3_log_keeps_the_rotation_near_pi(gap):
    G = SO3()
    rng = np.random.default_rng(17)
    assert 0.5 * (np.trace(G.exp([np.pi - gap, 0, 0]).reshape(3, 3)) - 1.0) \
        < NEAR_PI_COS
    for _ in range(200):
        axis = rng.standard_normal(3)
        xi = (np.pi - gap) * axis / np.linalg.norm(axis)
        out = G.log(G.exp(xi))
        if gap == 0.0:  # the rotation by pi about u is the one about -u
            out = out if out @ xi > 0 else -out
        # measured 1.3e-15; the matrix form is 2.4 off at gap 1e-9
        assert np.max(np.abs(out - xi)) <= 1e-13


@pytest.mark.parametrize("x", [3.5, np.float64(2.0), [1.0], np.arange(3.0),
                               np.ones((3, 3)), np.ones((2, 1))],
                         ids=["float", "0d", "list", "1d", "3x3", "2x1"])
def test_vec_matches_its_atleast_1d_form(x):
    n = np.size(x)
    for bad in (n - 1, n + 1):
        with pytest.raises(TagError):
            _vec(x, bad)
    if np.ndim(x) > 1:
        with pytest.raises(DomainError, match="not a vector"):
            _vec(x, n)
        return
    new, ref = _vec(x, n), vec_reference(x, n)
    assert new.shape == ref.shape and np.array_equal(new, ref)
    v, values = _vec(x, n, finite=True)
    assert np.array_equal(v, ref) and values == ref.tolist()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("G", [SU2(), KGroup(), SO3(), Su2K()],
                         ids=lambda g: g.name)
def test_check_rejects_a_non_finite_point(G, value):
    base = G.identity()
    for i in range(base.size):
        g = base.copy()
        g[i] = value
        with pytest.raises(DomainError):
            G.check(g)


@pytest.mark.parametrize("chart_map, point", [
    (SU2().check, np.eye(2)), (SU2().log, np.eye(2)),
    (SU2().exp, np.zeros((3, 1))), (KGroup().check, np.zeros((1, 3))),
    (SO3().check, np.eye(3)), (SO3().log, np.eye(3)),
    (partial(SO3().lift_matrix, "left"), np.eye(3)),
    (SO3().exp, np.zeros((3, 1))), (KGroup().exp, np.zeros((3, 1))),
    (lambda p: SU2().mul(p, p), np.eye(2)), (SU2().log_dlog, np.eye(2))],
    ids=["su2-check", "su2-log", "su2-exp", "k-check", "so3-check",
         "so3-log", "so3-lift", "so3-exp", "k-exp", "su2-mul", "su2-dlog"])
def test_a_point_that_is_not_a_vector_is_a_domain_error(chart_map, point):
    with pytest.raises(DomainError, match=r"shape \(%d, %d\)" % point.shape):
        chart_map(point)


def test_a_trajectory_of_matrix_shaped_rotations_is_a_domain_error():
    with pytest.raises(DomainError, match=r"shape \(3, 3\)"):
        Trajectory(GroupGroupoid(SO3()), [np.eye(3)])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("G, method", [
    (SO3(), "log"), (SO3(), "exp"), (SU2(), "log"), (SU2(), "exp"),
    (KGroup(), "log"), (KGroup(), "exp")],
    ids=lambda x: getattr(x, "name", x))
def test_non_finite_points_fail_typed_inside_solver_failure(G, method, value):
    # scalar arithmetic sees no np.errstate: a non-finite point must still
    # end as a solver failure, never a bare ValueError or a finite value
    base = G.identity() if method == "log" else np.full(G.dim, 0.3)
    for i in range(base.size):
        x = base.copy()
        x[i] = value
        with pytest.raises(MatchdynError):
            with solver_failure("chart map"):
                getattr(G, method)(x)


@pytest.mark.parametrize("chart_map, point", [
    (KGroup().exp, [0.0, 0.0, -40.0]), (KGroup().inv, [0.5, 0.5, 1e17]),
    (lambda p: KGroup().mul(p, p), [0.0, 0.0, -0.9999999999999999]),
    (KGroup().exp, [np.nan, 0.0, 0.0])],
    ids=["exp", "inv", "mul", "exp-nan"])
def test_k_maps_raise_where_a_point_leaves_the_chart(chart_map, point):
    # expm1(-40), -1e17 / (1 + 1e17) and (1 + c) c + c at c = -1 + 1.1e-16
    # each round onto the chart edge c = -1, and a NaN passes through exp's
    # arithmetic: the map that returns such a point raises
    with pytest.raises(DomainError, match="<= -1|not finite"):
        chart_map(np.array(point))


def test_so3_exp_rodrigues():
    G = SO3()
    xi = np.array([0.0, 0.0, np.pi / 2])
    R = G.exp(xi).reshape(3, 3)
    assert np.allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_hat3_cross():
    x = RNG.standard_normal(3)
    y = RNG.standard_normal(3)
    assert np.allclose(hat3(x) @ y, np.cross(x, y))


def test_rot2():
    assert np.allclose(rot2(np.pi / 2) @ [1, 0], [0, 1], atol=1e-12)
