import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchdyn.numerics
from matchdyn.dynamics import DiscreteLagrangian
from matchdyn.errors import (DomainError, EvaluationError, NoConvergence,
                             SingularJacobian)
from matchdyn.numerics import (
    DEFAULT_FD_STEP,
    fd_curve,
    fd_curve_columns,
    fd_gradient,
    fd_jacobian,
    newton_solve,
)


def test_fd_gradient_matches_analytic():
    A = np.array([[2.0, 0.5], [0.5, 3.0]])
    f = lambda x: 0.5 * float(x @ A @ x)
    x = np.array([0.7, -1.2])
    assert np.allclose(fd_gradient(f, x), A @ x, atol=1e-8)


def test_fd_curve_derivative():
    c = lambda t: np.array([np.sin(t), np.cos(t), t * t + 3 * t])
    assert np.allclose(fd_curve(c), [1.0, 0.0, 3.0], atol=1e-9)


def test_fd_jacobian():
    F = lambda x: np.array([x[0] * x[1], x[0] + x[1] ** 2])
    x = np.array([2.0, -1.0])
    J_true = np.array([[-1.0, 2.0], [1.0, -2.0]])
    assert np.allclose(fd_jacobian(F, x), J_true, atol=1e-8)


def test_newton_affine_one_step():
    A = np.array([[3.0, 1.0], [0.0, 2.0]])
    b = np.array([1.0, -4.0])
    x, _ = newton_solve(lambda x: A @ x - b, np.zeros(2))
    assert np.allclose(A @ x, b, atol=1e-10)


def test_newton_scalar_roundtrip():
    root, r = newton_solve(lambda x: x * x - 2.0, np.array([1.0]))
    assert root.shape == (1,) and r[0] == root[0] * root[0] - 2.0
    assert abs(root[0] - np.sqrt(2.0)) < 1e-10


def test_newton_singular_jacobian():
    with pytest.raises(SingularJacobian):
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0, x[0] ** 2 + 1.0]),
                     np.array([1.0, 1.0]))


def test_newton_singular_jacobian_at_a_root():
    # x0 already solves F, but the Jacobian there has rank one
    with pytest.raises(SingularJacobian):
        newton_solve(lambda x: np.array([x[0] ** 2 - 1.0, x[0] ** 2 - 1.0]),
                     np.array([1.0, 0.0]))


def test_newton_budget_exhausted(monkeypatch):
    monkeypatch.setattr(matchdyn.numerics, "MAX_ITER", 2)
    with pytest.raises(NoConvergence):
        newton_solve(lambda x: np.array([np.exp(x[0]) + 1.0]),
                     np.array([0.0]))


def test_newton_halves_a_trial_point_outside_the_domain():
    # the full Newton step from 1.5 lands at -1.69, outside |x| < 1.6
    def F(x):
        if abs(x[0]) >= 1.6:
            raise DomainError("outside the chart")
        return np.arctan(x)

    assert abs(newton_solve(F, np.array([1.5]))[0][0]) < 1e-10


def test_newton_never_accepts_a_nan_residual():
    F = lambda x: np.arctan(x) if abs(x[0]) < 1.6 else np.full(1, np.nan)
    assert abs(newton_solve(F, np.array([1.5]))[0][0]) < 1e-10


def test_newton_a_non_finite_first_residual_is_no_convergence():
    # F(0) is 0/0, while the Jacobian stencil around 0 is finite and regular
    def F(x):
        with np.errstate(invalid="ignore"):
            return np.sin(x) / x + x - 0.5

    with pytest.raises(NoConvergence):
        newton_solve(F, np.zeros(1))


def test_newton_line_search_running_out_is_no_convergence():
    # every point along the Newton direction (1, 1) leaves the domain, while
    # the axis-aligned Jacobian stencil at the origin stays inside
    def F(x):
        if x[0] > 0 and x[1] > 0:
            raise DomainError("outside the chart")
        return x - 5.0

    with pytest.raises(NoConvergence):
        newton_solve(F, np.zeros(2))


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of fd_jacobian and np.linalg.solve calls; ``fail_solve`` maps
    a solve call number to what that call returns or raises instead."""
    calls = {"jacobian": 0, "solve": 0, "fail_solve": {}}
    jacobian, solve = matchdyn.numerics.fd_jacobian, np.linalg.solve

    def counted_jacobian(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    def counted_solve(*args):
        calls["solve"] += 1
        failure = calls["fail_solve"].get(calls["solve"])
        if isinstance(failure, Exception):
            raise failure
        return solve(*args) if failure is None else failure

    monkeypatch.setattr(matchdyn.numerics, "fd_jacobian", counted_jacobian)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    return calls


def _system(x):
    return np.array([x[0] + 0.1 * x[1] ** 2 - 1.0,
                     x[1] + 0.1 * np.sin(x[0])])


def test_newton_reuses_one_jacobian_on_a_nonlinear_system(solver_calls):
    x, _ = newton_solve(_system, np.zeros(2))
    assert np.max(np.abs(_system(x))) <= 1e-10
    assert solver_calls["jacobian"] == 1
    assert solver_calls["solve"] > solver_calls["jacobian"]


def test_newton_budget_counts_jacobians(monkeypatch, solver_calls):
    # _system takes several steps on its one Jacobian, so a budget of one
    # pass is enough; a budget of one step would stop after the first
    monkeypatch.setattr(matchdyn.numerics, "MAX_ITER", 1)
    x, _ = newton_solve(_system, np.zeros(2))
    assert np.max(np.abs(_system(x))) <= 1e-10
    assert solver_calls["jacobian"] == 1
    assert solver_calls["solve"] > 1


def test_newton_refreshes_the_jacobian_when_a_step_fails_to_halve(
        solver_calls):
    # the first secant step lowers the residual norm, but by less than half,
    # so J is rebuilt once; accepting any decrease would keep it
    x, _ = newton_solve(lambda x: x ** 3 - 8.0, np.array([1.0]))
    assert abs(x[0] - 2.0) < 1e-10
    assert solver_calls["jacobian"] == 2


@pytest.mark.parametrize("failure", [np.linalg.LinAlgError("singular"),
                                     np.full(2, np.nan)],
                         ids=["LinAlgError", "non-finite"])
def test_newton_refreshes_when_an_updated_jacobian_cannot_be_solved(
        solver_calls, failure):
    # solve call 1 is the damped step on the fresh Jacobian, call 2 the
    # first full step on the updated one
    solver_calls["fail_solve"][2] = failure
    x, _ = newton_solve(_system, np.zeros(2))
    assert np.max(np.abs(_system(x))) <= 1e-10
    assert solver_calls["jacobian"] == 2


def test_newton_failures_carry_the_last_residual_and_condition(monkeypatch):
    monkeypatch.setattr(matchdyn.numerics, "MAX_ITER", 2)
    with pytest.raises(NoConvergence) as info:
        newton_solve(lambda x: np.array([np.exp(x[0]) + 1.0]),
                     np.array([0.0]))
    assert info.value.residual_norm > 1.0
    assert info.value.cond == pytest.approx(1.0)
    assert "condition estimate 1.000e+00" in str(info.value)
    with pytest.raises(SingularJacobian) as info:
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0, x[0] ** 2 + 1.0]),
                     np.array([1.0, 1.0]))
    assert info.value.residual_norm == 2.0
    assert info.value.cond > 1e14


def test_default_step_value():
    assert abs(DEFAULT_FD_STEP - np.cbrt(np.finfo(float).eps)) == 0.0


# -- one stencil: the earlier per-helper formulas as bit-for-bit references -

def directional_reference(f, x, v):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    h = DEFAULT_FD_STEP * (1.0 + np.linalg.norm(x))
    return (float(f(x + h * v)) - float(f(x - h * v))) / (2.0 * h)


def curve_reference(c):
    cp = np.asarray(c(DEFAULT_FD_STEP), dtype=float)
    cm = np.asarray(c(-DEFAULT_FD_STEP), dtype=float)
    return (cp - cm) / (2.0 * DEFAULT_FD_STEP)


def jacobian_reference(F, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = DEFAULT_FD_STEP * (1.0 + np.linalg.norm(x))
    eye = np.eye(x.size)
    return np.column_stack([(np.atleast_1d(F(x + h * e))
                             - np.atleast_1d(F(x - h * e))) / (2.0 * h)
                            for e in eye])


def scalar_map(x):
    return float(np.sin(x) @ np.arange(1.0, x.size + 1.0) + 0.5 * x @ x)


def vector_map(x):
    return np.array([np.sin(x[0]) * x[-1], x @ x, np.cos(x).sum() - x[0]])


points = st.integers(1, 4).flatmap(lambda n: st.one_of(
    st.just(np.zeros(n)),
    st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n).map(np.array)))


@settings(max_examples=200, deadline=None)
@given(x=points, seed=st.integers(0, 2 ** 32 - 1))
def test_one_stencil_matches_the_per_helper_formulas_bit_for_bit(x, seed):
    rng = np.random.default_rng(seed)
    n = x.size
    v = rng.standard_normal(n)
    lift = rng.standard_normal((n, int(rng.integers(1, 4))))
    assert np.array_equal(fd_gradient(scalar_map, x), np.array(
        [directional_reference(scalar_map, x, e) for e in np.eye(n)]))
    assert np.array_equal(
        DiscreteLagrangian(scalar_map).pullback(x, lift),
        np.array([directional_reference(scalar_map, x, c) for c in lift.T]))
    for F in (scalar_map, vector_map):
        assert np.array_equal(fd_jacobian(F, x), jacobian_reference(F, x))
        curve = lambda t: F(x + t * v)
        assert np.array_equal(fd_curve(curve), curve_reference(curve))
        assert np.array_equal(fd_curve_columns(F, n), np.column_stack(
            [curve_reference(lambda t, e=e: F(t * e)) for e in np.eye(n)]))


def test_a_non_finite_stencil_value_names_the_point():
    x = np.array([1.0, 2.0])
    with pytest.raises(EvaluationError) as info:
        fd_jacobian(lambda y: np.array([y[0] if y[0] >= 1.0 else np.inf]), x)
    assert np.array_equal(info.value.point, x)


@pytest.mark.parametrize("cause", [EvaluationError, DomainError,
                                   FloatingPointError],
                         ids=lambda cause: cause.__name__)
def test_newton_a_non_finite_jacobian_is_no_convergence(cause):
    # the stencil's upper point gives a non-finite value, leaves F's domain
    # or overflows; F(x0) is finite
    def F(x):
        if x[0] < 1.000001:
            return np.array([x[0] - 2.0])
        if cause is EvaluationError:
            return np.array([np.inf])
        raise cause("beyond the stencil")

    with pytest.raises(NoConvergence) as info:
        newton_solve(F, np.array([1.0]))
    assert "non-finite Jacobian: " + cause.__name__ in str(info.value)
    assert info.value.residual_norm == 1.0
    assert info.value.cond == np.inf
