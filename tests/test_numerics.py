import numpy as np
import pytest

import matchdyn.numerics
from matchdyn.errors import DomainError, NoConvergence, SingularJacobian
from matchdyn.numerics import (
    DEFAULT_FD_STEP,
    fd_curve,
    fd_directional,
    fd_gradient,
    fd_jacobian,
    newton_solve,
)


def test_fd_directional_quadratic():
    f = lambda x: float(x @ x)
    x = np.array([1.0, 2.0, -0.5])
    v = np.array([0.3, -1.0, 2.0])
    assert abs(fd_directional(f, x, v) - 2.0 * x @ v) < 1e-8


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
