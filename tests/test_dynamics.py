import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matchdyn.numerics
from matchdyn.algebroid import AlgebroidVector, a_phi
from matchdyn.dynamics import (
    DiscreteLagrangian,
    Trajectory,
    del_residual,
    del_residual_matched_group,
    del_residuals,
    del_step,
    del_step_matched_group,
    arrow_momenta,
    march,
    matched_group_momenta,
    momentum_evolution,
    momentum_residuals,
    oracle_gradient,
    solve_matched_group_trajectory,
    stacked_oracle_gradients,
    solve_trajectory,
    variational_oracle,
)
from matchdyn.errors import (DomainError, NoConvergence, NotComposable,
                             SingularJacobian, SolverFailure, TagError)
from matchdyn.groupoids import (
    GroupGroupoid,
    Groupoid,
    MatchedPairGroupoid,
    default_trivial_decomposition,
)
from matchdyn.groups import SO3, SU2, Circle, Group, KGroup
from matchdyn.matched_group import (
    MatchedPairGroup,
    Su2K,
    both_trivial_pair,
    left_trivial_pair,
    right_trivial_pair,
)
from matchdyn.numerics import fd_columns
from matchdyn.scenarios import (
    INITIAL,
    ScenarioConfig,
    check_residual_file,
    matched_lagrangian,
    run_sl2c,
    run_trivial_groupoid,
    sl2c_lagrangian,
    trivial_groupoid_lagrangian,
    write_trajectory_csv,
)
from reference import reduced_momentum_residual

RNG = np.random.default_rng(20240821)

DEC = default_trivial_decomposition()


def smooth_lagrangian(dim, rng):
    Q = rng.standard_normal((dim, dim))
    Q = Q @ Q.T / dim + np.eye(dim)
    c = rng.standard_normal(dim)
    return DiscreteLagrangian(
        lambda x: 0.5 * float(x @ Q @ x) + float(np.sin(c @ x)))


def record_points(L, method):
    """Replace L.<method> by a wrapper that logs every point it is asked
    for; returns the log."""
    points = []
    inner = getattr(L, method)

    def logged(x, *args):
        points.append(np.array(x, dtype=float))
        return inner(x, *args)

    setattr(L, method, logged)
    return points


# -- trajectories -----------------------------------------------------------

def test_trajectory_rejects_broken_gluing():
    with pytest.raises(NotComposable):
        Trajectory(DEC.paird, [np.array([0.0, 0.0, 1.0, 0.0]),
                               np.array([1.1, 0.0, 2.0, 0.0])])


def test_group_groupoid_arrows_are_group_elements():
    with pytest.raises(DomainError):
        Trajectory(GroupGroupoid(SU2()), [[2.0, 0.0, 0.0, 0.0]])
    desc = GroupGroupoid(SO3())
    inertia = np.array([1.0, 2.0, 3.0])
    L = DiscreteLagrangian(
        lambda g: 0.5 * float(desc.G.log(g) @ (inertia * desc.G.log(g))))
    with pytest.raises(DomainError):
        solve_trajectory(desc, L, 2.0 * np.eye(3).ravel(), 3)


def test_each_exported_object_has_one_name():
    names = {}
    for name in matchdyn.__all__:
        names.setdefault(id(getattr(matchdyn, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


# -- junction residuals -----------------------------------------------------

def test_pair_residual_analytic():
    desc = DEC.paird
    L = DiscreteLagrangian(lambda arr: 0.5 * float(
        np.sum((arr[2:] - arr[:2]) ** 2)))
    x, y, z = RNG.standard_normal(2), RNG.standard_normal(2), RNG.standard_normal(2)
    r = del_residual(desc, L, np.concatenate([x, y]), np.concatenate([y, z]))
    assert np.allclose(r, (y - x) - (z - y), atol=1e-8)
    # solved when the increments match
    r0 = del_residual(desc, L, np.concatenate([x, y]),
                      np.concatenate([y, 2 * y - x]))
    assert np.max(np.abs(r0)) < 1e-8


def test_constant_lagrangian_zero_residual():
    L = DiscreteLagrangian(lambda x: 2.0)
    for desc in [DEC.paird, DEC.actiond, DEC.trivial, DEC.matched]:
        g = desc.random_arrow(RNG)
        g2 = desc.random_with_source(desc.beta(g), RNG)
        assert np.max(np.abs(del_residual(desc, L, g, g2))) < 1e-9


def test_group_residual_equals_momentum_form():
    desc = GroupGroupoid(SU2())
    G = desc.G
    L = smooth_lagrangian(4, RNG)
    for _ in range(10):
        g1 = G.random(RNG)
        g2 = G.random(RNG)
        r = del_residual(desc, L, g1, g2)
        m = (G.lift_matrix("left", g1).T @ L.gradient(g1)
             - G.lift_matrix("right", g2).T @ L.gradient(g2))
        assert np.allclose(r, m, atol=1e-9)


def test_residual_rejects_noncomposable():
    L = DiscreteLagrangian(lambda x: 0.0)
    g = DEC.paird.random_arrow(RNG)
    g2 = DEC.paird.random_arrow(RNG)
    with pytest.raises(NotComposable):
        del_residual(DEC.paird, L, g, g2)


# -- matched groupoid residual ----------------------------------------------

def test_matched_residual_agrees_with_generic_assembly():
    # the closed induced actions of OrbitPair against the base-class
    # finite-difference ones of the same pair
    md = DEC.matched
    generic = MatchedPairGroupoid(DEC.actiond, DEC.paird, DEC._actions)
    L = smooth_lagrangian(md.arrow_dim, RNG)
    for _ in range(10):
        x = md.random_arrow(RNG)
        y = md.random_with_source(md.beta(x), RNG)
        assert np.allclose(del_residual(md, L, x, y),
                           del_residual(generic, L, x, y), atol=1e-7)


def test_matched_residual_both_trivial_splits():
    G1 = GroupGroupoid(SO3())
    G2 = GroupGroupoid(SO3())
    md = MatchedPairGroupoid(G1, G2, lambda h, g: (np.asarray(g, dtype=float),
                                                   np.asarray(h, dtype=float)))
    L1 = smooth_lagrangian(9, RNG)
    L2 = smooth_lagrangian(9, RNG)
    L = DiscreteLagrangian(lambda x: L1(x[:9]) + L2(x[9:]))
    for _ in range(5):
        x = md.random_arrow(RNG)
        y = md.random_arrow(RNG)
        r = del_residual(md, L, x, y)
        rg = del_residual(G1, L1, x[:9], y[:9])
        rh = del_residual(G2, L2, x[9:], y[9:])
        assert np.allclose(r, np.concatenate([rg, rh]), atol=1e-9)


def test_phi_correspondence_of_residuals():
    md = DEC.matched
    t = DEC.trivial
    Lt = smooth_lagrangian(t.arrow_dim, RNG)
    Lm = DiscreteLagrangian(lambda u: Lt(DEC.phi_inv(u)))
    for _ in range(10):
        x = t.random_arrow(RNG)
        y = t.random_with_source(t.beta(x), RNG)
        b = t.beta(x)
        rm = del_residual(md, Lm, DEC.phi(x), DEC.phi(y))
        rt = del_residual(t, Lt, x, y)
        A = np.column_stack([
            a_phi(DEC, AlgebroidVector(t, b, e)).z
            for e in np.eye(t.fiber_dim)
        ])
        assert np.allclose(rt, A.T @ rm, atol=1e-7)


# -- matched group residual -------------------------------------------------

def test_matched_group_momentum_form_equals_field_form():
    mp = Su2K()
    L = smooth_lagrangian(mp.coord_dim, RNG)
    for _ in range(10):
        uk = mp.random(RNG)
        uk1 = mp.random(RNG)
        r1 = del_residual_matched_group(mp, L, uk, uk1)
        r2 = del_residual(mp, L, uk, uk1)
        assert np.allclose(r1, r2, atol=1e-7)


def test_matched_group_is_its_matched_pair_groupoid():
    # over a point the pair steps exactly as its group groupoid does
    rng = np.random.default_rng(34)
    for mp in (Su2K(), right_trivial_pair(), left_trivial_pair(),
               both_trivial_pair()):
        e = mp.identity()
        L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2))
                               + 0.1 * float(np.sin(u[0] + u[-1])))
        uk = mp.exp(0.05 * rng.standard_normal(mp.dim))
        for a, b in zip(del_step_matched_group(mp, L, uk),
                        del_step(GroupGroupoid(mp), L, uk)):
            assert np.array_equal(a, b)


def test_matched_group_decoupled_momentum_recursions():
    # each degenerate pair reduces the momentum form through its own
    # identity and zero blocks to the paper's semidirect (R^3 x| SO(3),
    # SO(3) |x R^3) or decoupled (SO(3) x SO(3)) recursions, written by hand
    # from the pair's actions
    rng = np.random.default_rng(32)
    for mp in (right_trivial_pair(), left_trivial_pair(),
               both_trivial_pair()):
        L = smooth_lagrangian(mp.coord_dim, rng)
        for _ in range(10):
            uk, uk1 = mp.random(rng), mp.random(rng)
            gap = (del_residual_matched_group(mp, L, uk, uk1)
                   - reduced_momentum_residual(mp, L, uk, uk1))
            assert np.max(np.abs(gap)) <= 1e-12


def test_matched_group_residual_one_gradient_per_arrow():
    rng = np.random.default_rng(31)
    mp = Su2K()
    L = smooth_lagrangian(mp.coord_dim, rng)
    points = record_points(L, "gradient")
    del_residual_matched_group(mp, L, mp.random(rng), mp.random(rng))
    assert len(points) == 2


def test_su2k_outgoing_half_builds_two_lift_matrices(monkeypatch):
    # mu and nu need the SU(2) and K right lifts at u, once in the arrow's
    # record; the momentum form reads the record, and only the closed b*
    # builds a third lift: the SU(2) right lift of its dagger block at the
    # later arrow
    built = []
    for cls in (SU2, KGroup):
        def counted(self, side, g, lift_matrix=cls.lift_matrix):
            built.append((self.name, side))
            return lift_matrix(self, side, g)

        monkeypatch.setattr(cls, "lift_matrix", counted)
    rng = np.random.default_rng(33)
    mp = Su2K()
    L = smooth_lagrangian(mp.coord_dim, rng)
    arrows = [mp.random(rng), mp.random(rng)]
    momenta = [matched_group_momenta(mp, L, u) for u in arrows]
    assert built == [("su2", "right"), ("k", "right")] * 2
    built.clear()
    momentum_residuals(mp, arrows, momenta)
    assert built == [("su2", "right")]


ARROW_PAIRS = [Su2K(), right_trivial_pair(), left_trivial_pair(),
               both_trivial_pair()]


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(ARROW_PAIRS), n_arrows=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_momentum_residuals_over_shared_records_equal_the_junction_form(
        pair, n_arrows, seed):
    # the records of a chain, built once per arrow and shared by adjacent
    # junctions, give the form bit for bit as the two-arrow reference
    rng = np.random.default_rng(seed)
    L = smooth_lagrangian(pair.coord_dim, rng)
    arrows = [pair.random(rng) for _ in range(n_arrows)]
    momenta = arrow_momenta(pair, L, arrows)
    for k, r in enumerate(momentum_residuals(pair, arrows, momenta), 1):
        assert np.array_equal(r, del_residual_matched_group(
            pair, L, arrows[k - 1], arrows[k]))


def test_default_junction_solves_take_no_finite_difference_derivatives(
        monkeypatch):
    # the built-in Lagrangians and the groups carry closed derivatives, so
    # finite differences are left to the oracles (and the Newton Jacobian)
    import matchdyn.dynamics as dynamics

    def oracle_only(*args):
        raise AssertionError("finite-difference derivative in a junction "
                             "solve")

    monkeypatch.setattr(dynamics, "fd_gradient", oracle_only)
    monkeypatch.setattr(Group, "lift_matrix", oracle_only)
    mp = Su2K()
    L = sl2c_lagrangian(mp, ScenarioConfig("sl2c"))
    uk = mp.exp([0.2, -0.1, 0.15, 0.1, 0.05, -0.1])
    uk1, _ = del_step_matched_group(mp, L, uk)
    assert np.max(np.abs(del_residual(GroupGroupoid(mp), L, uk, uk1))) < 1e-10
    dec = default_trivial_decomposition()
    L = trivial_groupoid_lagrangian(dec, ScenarioConfig("trivial_groupoid"))
    xk = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    xk1, _ = del_step(dec.trivial, L, xk)
    assert np.max(np.abs(del_residual(dec.trivial, L, xk, xk1))) < 1e-10


def test_junction_solve_calls_no_reference(monkeypatch):
    # the assembled residual, the momentum form, the finite-difference
    # fields, lifts, induced actions and pair, and the oracle are references
    # for the tests and `matchdyn check`; one junction solve runs without them
    import matchdyn.algebroid as algebroid
    import matchdyn.dynamics as dynamics

    def reference(*args, **kwargs):
        raise AssertionError("reference called in a junction solve")

    for owner, name in ((dynamics, "del_residual"),
                        (dynamics, "del_residual_matched_group"),
                        (dynamics, "variational_oracle"),
                        (algebroid, "left_invariant_generic"),
                        (algebroid, "right_invariant_generic"),
                        (MatchedPairGroup, "generic"),
                        (MatchedPairGroupoid, "g_fiber_actions"),
                        (MatchedPairGroupoid, "h_fiber_actions"),
                        (Group, "lift_matrix")):
        monkeypatch.setattr(owner, name, reference)
    mp = Su2K()
    L = sl2c_lagrangian(mp, ScenarioConfig("sl2c"))
    _, r = del_step(mp, L, mp.exp([0.2, -0.1, 0.15, 0.1, 0.05, -0.1]))
    assert np.max(np.abs(r)) < 1e-10


# calls into the package's own functions per junction of the default
# 20-step sl2c march under cProfile: 409.3 measured since Su2K's closed
# action on the SU(2) fiber reads its K point once (412.3 before, 599.7
# before each chart map read a point through one call of _vec), plus a
# margin of 5%.  numpy's internals are not counted, so only this package's
# code moves it.  It reads 412.3 since the pair's log, which each junction
# calls once, takes its factor logs through Group.log_values; the bound is
# kept.
SL2C_CALLS_PER_JUNCTION = 409.3
CALLS_MARGIN = 0.05
# the same count per junction of the default 20-step trivial_groupoid run,
# both presentations with their oracles (737.9 when the oracle evaluated
# one stencil point at a time; it reads 312.0 since the circle's log goes
# through log_values, and the bound is kept), and of `check residual` on its
# file (29.3 when it checked the file's trajectory twice, 195.6 before that)
TRIVIAL_RUN_CALLS_PER_JUNCTION = 310.0
TRIVIAL_CHECK_CALLS_PER_JUNCTION = 23.1
# the same count per junction of a 10-step solve of each degenerate pair
# with a log-quadratic Lagrangian, which calls the pair's log twice per
# evaluation (2,677.3, 2,901.0 and 2,835.0 when a pair's log split its point
# into two factor arrays and joined their logs)
PAIR_CALLS_PER_JUNCTION = {"r3_rtimes_so3": 2004.3, "so3_ltimes_r3": 2169.3,
                           "so3_times_so3": 2119.3}


def package_calls(fn, *args):
    """(fn(*args), the calls into the package's own functions it made under
    cProfile)."""
    import cProfile
    import os
    import pstats

    import matchdyn

    package = os.path.dirname(os.path.abspath(matchdyn.__file__)) + os.sep
    profile = cProfile.Profile()
    out = profile.runcall(fn, *args)
    return out, sum(stat[1] for (path, _, _), stat
                    in pstats.Stats(profile).stats.items()
                    if os.path.abspath(path).startswith(package))


def test_an_sl2c_junction_stays_within_its_call_count():
    mp = Su2K()
    L = sl2c_lagrangian(mp, ScenarioConfig("sl2c"))
    first = mp.exp(INITIAL["sl2c"][1])
    (arrows, _), calls = package_calls(march, mp, L, first, 20)
    assert len(arrows) == 20
    assert calls / 19 <= SL2C_CALLS_PER_JUNCTION * (1.0 + CALLS_MARGIN)


def test_a_trivial_groupoid_junction_stays_within_its_call_count(tmp_path):
    config = ScenarioConfig("trivial_groupoid", steps=20)
    (report, header, rows), calls = package_calls(run_trivial_groupoid,
                                                  config)
    assert len(rows) == 20 and report.oracle_max <= 1e-6
    assert calls / 19 <= TRIVIAL_RUN_CALLS_PER_JUNCTION * (1.0 + CALLS_MARGIN)
    path = str(tmp_path / "trivial_groupoid.csv")
    write_trajectory_csv(path, config, header, rows)
    (failures, _), calls = package_calls(check_residual_file, path)
    assert failures == []
    assert calls / 19 <= TRIVIAL_CHECK_CALLS_PER_JUNCTION * (
        1.0 + CALLS_MARGIN)


@pytest.mark.parametrize("make_pair", [right_trivial_pair, left_trivial_pair,
                                       both_trivial_pair])
def test_a_degenerate_pair_junction_stays_within_its_call_count(make_pair):
    mp = make_pair()
    Q = np.diag([1.0, 1.4, 1.8, 2.2, 2.6, 3.0]) + 0.1 * np.ones((6, 6))
    L = DiscreteLagrangian(lambda u: 0.5 * float(mp.log(u) @ Q @ mp.log(u)))
    first = mp.exp([0.1, -0.2, 0.15, 0.05, 0.1, -0.1])
    (arrows, norms), calls = package_calls(solve_matched_group_trajectory,
                                           mp, L, first, 10)
    assert len(arrows) == 10 and max(norms) < 1e-9
    assert calls / 9 <= PAIR_CALLS_PER_JUNCTION[mp.name] * (
        1.0 + CALLS_MARGIN)


def test_an_sl2c_junction_builds_one_su2_lift_per_evaluation(monkeypatch):
    # the incoming half builds the SU(2) left lift once per junction, and
    # each outgoing evaluation builds one SU(2) right lift, which the closed
    # right lift of Su2K shares between its factor and dagger blocks: 259
    # lifts over the 19 junctions of the default 20-step march, 13.6 per
    # junction at one decimal, against 26.3 when each block built its own
    built, pulled = [], []

    def counted(self, side, g, lift_matrix=SU2.lift_matrix):
        built.append(side)
        return lift_matrix(self, side, g)

    def pullback(self, x, lift, pullback=DiscreteLagrangian.pullback):
        pulled.append(x)
        return pullback(self, x, lift)

    monkeypatch.setattr(SU2, "lift_matrix", counted)
    monkeypatch.setattr(DiscreteLagrangian, "pullback", pullback)
    mp = Su2K()
    L = sl2c_lagrangian(mp, ScenarioConfig("sl2c"))
    arrows, _ = march(mp, L, mp.exp(INITIAL["sl2c"][1]), 20)
    assert len(arrows) == 20
    assert len(built) == len(pulled)
    assert round(len(built) / 19, 1) <= 13.6


def test_solver_modules_do_not_import_algebroid():
    # the fields and induced actions of algebroid read the descriptors'
    # lifts; nothing a junction solve runs depends on them
    import ast
    import pathlib

    src = pathlib.Path(matchdyn.numerics.__file__).parent
    for name in ("numerics", "groups", "groupoids", "matched_group",
                 "dynamics"):
        imported = set()
        for node in ast.walk(ast.parse((src / (name + ".py")).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name for alias in node.names)
        assert not any("algebroid" in n.split(".") for n in imported), name


def log_quadratic(mp, rng):
    """0.5 log(u)^T Q log(u) with a random SPD Q: no closed gradient."""
    A = rng.standard_normal((mp.dim, mp.dim))
    Q = A @ A.T / mp.dim + np.eye(mp.dim)
    return DiscreteLagrangian(lambda u: 0.5 * float(mp.log(u) @ Q
                                                    @ mp.log(u)))


def test_outgoing_half_differentiates_l_along_the_fiber_only():
    # so3_times_so3 has 18 arrow coordinates and 6 fiber directions
    mp = both_trivial_pair()
    rng = np.random.default_rng(36)
    L = log_quadratic(mp, rng)
    evaluate = L.evaluate
    calls = []

    def counted(x):
        calls.append(1)
        return evaluate(x)

    L.evaluate = counted
    u = mp.random(rng)
    lift = mp.right_lift(u)
    half = L.pullback(u, lift)
    assert len(calls) == 2 * mp.fiber_dim == 12
    calls.clear()
    assert np.max(np.abs(half - lift.T @ L.gradient(u))) <= 1e-9
    assert len(calls) == 2 * mp.arrow_dim == 36


@pytest.mark.parametrize("builder", [right_trivial_pair, left_trivial_pair,
                                     both_trivial_pair])
def test_degenerate_pair_step_takes_closed_actions_and_no_gradient(
        builder, monkeypatch):
    # the induced actions are closed and L is differentiated along the
    # lift columns: the groupoid's finite-difference matrices and the
    # ambient gradient stay with the references
    import matchdyn.dynamics as dynamics

    def reference(*args, **kwargs):
        raise AssertionError("reference called in a junction solve")

    monkeypatch.setattr(dynamics, "fd_gradient", reference)
    for name in ("g_fiber_actions", "h_fiber_actions"):
        monkeypatch.setattr(MatchedPairGroupoid, name, reference)
    mp = builder()
    rng = np.random.default_rng(37)
    _, r = del_step(mp, log_quadratic(mp, rng),
                    mp.exp(0.3 * rng.standard_normal(mp.dim)))
    assert np.max(np.abs(r)) <= 1e-10


def test_matched_groupoid_step_builds_no_fiber_tangent_matrix(monkeypatch):
    # the induced-action matrices read their curves through arrow_coords,
    # so a junction solve never differentiates the fiber chart itself
    built = []
    fiber_tangent_matrix = Groupoid.fiber_tangent_matrix

    def counted(self, b):
        built.append(self.name)
        return fiber_tangent_matrix(self, b)

    def spring(u):
        m, g, n = DEC.trivial.split(DEC.phi_inv(u))
        return 0.5 * float(np.sum((n - m) ** 2)) + 0.5 * float(g[0] ** 2)

    monkeypatch.setattr(Groupoid, "fiber_tangent_matrix", counted)
    del_step(DEC.matched, DiscreteLagrangian(spring),
             DEC.phi(np.array([0.0, 0.0, 0.3, 1.0, 0.0])))
    assert built == []


def test_trivial_matched_step_differentiates_no_induced_action(monkeypatch):
    # OrbitPair closes the four induced-action matrices, so a junction solve
    # on the matched presentation takes no curve derivative in groupoids
    import matchdyn.groupoids as groupoids

    def reference(*args, **kwargs):
        raise AssertionError("finite-difference curve in a junction solve")

    monkeypatch.setattr(groupoids, "fd_curve_columns", reference)
    L = matched_lagrangian(DEC, trivial_groupoid_lagrangian(
        DEC, ScenarioConfig("trivial_groupoid")))
    _, r = del_step(DEC.matched, L,
                    DEC.phi(np.array([0.0, 0.0, 0.3, 1.0, 0.0])))
    assert np.max(np.abs(r)) <= 1e-10


def test_matched_group_step_evaluates_incoming_half_once():
    mp = Su2K()
    e = mp.identity()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2))
                           + 0.1 * float(np.sin(u[0] + u[5])))
    uk = mp.exp(0.05 * np.random.default_rng(32).standard_normal(6))
    points = record_points(L, "pullback")
    # the warm start is u_k itself, so u_k is visited twice: by the incoming
    # half and by Newton's first residual; an incoming half evaluated inside
    # the residual would be visited again at every Jacobian column and trial
    del_step_matched_group(mp, L, uk)
    assert sum(np.array_equal(p, uk) for p in points) == 2
    assert len(points) > 2


def test_matched_group_identity_critical_point():
    mp = Su2K()
    e = mp.identity()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2)))
    r = del_residual_matched_group(mp, L, e, e)
    assert np.max(np.abs(r)) < 1e-9


def test_matched_group_trajectory_rejects_unknown_form_before_stepping(
        monkeypatch):
    import matchdyn.dynamics as dynamics

    steps = []
    for name in ("del_step", "del_step_matched_group"):
        monkeypatch.setattr(dynamics, name,
                            lambda *a, name=name, **kw: steps.append(name))
    mp = Su2K()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum(u ** 2)))
    # "full" is the one form; the retired degenerate names are unknown too
    for form in ("nope", "right-trivial"):
        with pytest.raises(TagError):
            solve_matched_group_trajectory(mp, L, mp.identity(), 3, form=form)
    assert steps == []


def test_matched_group_step_drives_residual_to_zero():
    mp = Su2K()
    e = mp.identity()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2))
                           + 0.1 * float(np.sin(u[0] + u[5])))
    u1 = mp.exp(0.05 * RNG.standard_normal(6))
    arrows, norms = solve_matched_group_trajectory(mp, L, u1, 4)
    assert len(arrows) == 4
    assert max(norms) < 1e-9
    # the two-mat-vec residual that del_step solves agrees
    for uk, uk1 in zip(arrows, arrows[1:]):
        rf = del_residual(mp, L, uk, uk1)
        assert np.max(np.abs(rf)) < 1e-6


# -- stepping ---------------------------------------------------------------

def test_del_step_pair_analytic():
    desc = DEC.paird
    L = DiscreteLagrangian(lambda arr: 0.5 * float(
        np.sum((arr[2:] - arr[:2]) ** 2)))
    nxt, _ = del_step(desc, L, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(nxt, [1.0, 0.0, 2.0, 0.0], atol=1e-9)


def test_del_step_reuses_one_jacobian_across_newton_iterations(monkeypatch):
    import matchdyn.dynamics
    import matchdyn.numerics

    calls = {"jacobian": 0, "solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every namespace that imports fd_jacobian counts; each Newton iteration
    # solves one linear system, the second on the Broyden-updated Jacobian
    jac = counted("jacobian", matchdyn.numerics.fd_jacobian)
    monkeypatch.setattr(matchdyn.numerics, "fd_jacobian", jac)
    monkeypatch.setattr(matchdyn.dynamics, "fd_jacobian", jac)
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    # a constant force 0.5 on n_1 adds 0.5 to the velocity at each step, so
    # the constant-velocity warm start is not a root and Newton iterates
    L = DiscreteLagrangian(lambda x: 0.5 * float(np.sum((x[3:] - x[:2]) ** 2))
                           + 0.5 * float(x[2] ** 2) + 0.5 * float(x[3]))
    nxt, _ = del_step(DEC.trivial, L, np.array([0.0, 0.0, 0.3, 1.0, 0.0]))
    assert np.allclose(nxt, [1.0, 0.0, 0.3, 2.5, 0.0], atol=1e-9)
    assert calls["jacobian"] == 1
    assert calls["solve"] == 2


def test_each_junction_jacobian_costs_one_residual_per_fiber_direction(
        monkeypatch):
    # the forward-difference Jacobian starts from the residual the Newton
    # pass holds, so it evaluates the residual once per fiber direction
    costs = []
    jacobian = matchdyn.numerics.fd_jacobian

    def counted(F, x, fx):
        calls = []
        J = jacobian(lambda y: calls.append(y) or F(y), x, fx)
        costs.append(len(calls))
        return J

    monkeypatch.setattr(matchdyn.numerics, "fd_jacobian", counted)
    run_sl2c(ScenarioConfig("sl2c", steps=10))
    assert costs == [Su2K().fiber_dim] * 9
    costs.clear()
    desc = GroupGroupoid(SO3())
    inertia = np.diag([1.0, 2.0, 3.0])
    L = DiscreteLagrangian(
        lambda g: 0.5 * float(desc.G.log(g) @ inertia @ desc.G.log(g)))
    march(desc, L, desc.G.exp(np.array([0.2, -0.1, 0.15])), 10)
    assert len(costs) >= 9 and costs == [desc.fiber_dim] * len(costs)


def _bent_spring(u):
    # the spring plus a term that keeps the junction residual off zero
    m, g, n = DEC.trivial.split(u)
    return (0.5 * float(np.sum((n - m) ** 2)) + 0.5 * float(g[0] ** 2)
            + 0.1 * float(np.sin(n[0] + g[0])))


@pytest.mark.parametrize("case", ["so3", "trivial", "matched", "su2k"])
def test_del_step_returns_the_residual_del_residual_computes(case):
    # bit for bit where L has a closed gradient, so no trajectory loop
    # needs to recompute it
    so3 = GroupGroupoid(SO3())
    x0 = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    mp = Su2K()
    Lt = DiscreteLagrangian(_bent_spring)
    desc, L, gk = {
        "so3": (so3, DiscreteLagrangian(lambda g: 0.5 * float(
            so3.G.log(g) @ np.diag([1.0, 2.0, 3.0]) @ so3.G.log(g))),
                so3.G.exp(np.array([0.2, -0.1, 0.15]))),
        "trivial": (DEC.trivial, Lt, x0),
        "matched": (DEC.matched, matched_lagrangian(DEC, Lt), DEC.phi(x0)),
        "su2k": (mp, sl2c_lagrangian(mp, ScenarioConfig("sl2c", params={
            "coupling": 0.25})), mp.exp([0.2, -0.1, 0.15, 0.1, 0.05, -0.1])),
    }[case]
    nxt, r = del_step(desc, L, gk)
    if case == "so3":
        # L has no closed gradient, so del_step differentiates it along the
        # lift columns while del_residual pairs them with its ambient
        # finite-difference gradient; on the trivial groupoid the columns
        # are signed coordinate axes and the two agree bit for bit
        assert np.array_equal(r, L.pullback(gk, desc.left_lift(gk))
                              - L.pullback(nxt, desc.right_lift(nxt)))
        assert np.max(np.abs(r - del_residual(desc, L, gk, nxt))) <= 1e-9
    else:
        assert np.array_equal(r, del_residual(desc, L, gk, nxt))
    assert 0.0 < np.max(np.abs(r)) <= 1e-10


def test_trajectories_march_once_and_never_recompute_the_residual(
        monkeypatch):
    import matchdyn.dynamics as dynamics
    import matchdyn.scenarios as scenarios

    def recompute(*args, **kwargs):
        raise AssertionError("junction residual recomputed after its solve")

    marched = []

    def counted(desc, *args, **kwargs):
        marched.append(desc.name)
        return march(desc, *args, **kwargs)

    monkeypatch.setattr(dynamics, "del_residual", recompute)
    for module in (dynamics, scenarios):
        monkeypatch.setattr(module, "march", counted)
    so3 = GroupGroupoid(SO3())
    L = DiscreteLagrangian(lambda g: 0.5 * float(so3.G.log(g) @ so3.G.log(g)))
    assert len(solve_trajectory(so3, L, so3.G.exp([0.2, -0.1, 0.15]), 4)) == 4
    mp = both_trivial_pair()
    L = DiscreteLagrangian(lambda u: 0.5 * float(mp.log(u) @ mp.log(u)))
    arrows, _ = solve_matched_group_trajectory(mp, L, mp.exp(0.1 * np.ones(6)),
                                               4)
    assert len(arrows) == 4 and marched == [so3.name, mp.name]
    run_trivial_groupoid(ScenarioConfig("trivial_groupoid", steps=4))
    assert marched[2:] == [DEC.trivial.name, DEC.matched.name]
    run_sl2c(ScenarioConfig("sl2c", steps=4))
    assert marched[4:] == [Su2K().name]


def test_trajectory_loops_name_the_step_of_a_solver_failure():
    # a constant Lagrangian has a zero Jacobian at the first junction
    L = DiscreteLagrangian(lambda arr: 1.0)
    with pytest.raises(SingularJacobian, match="^step 1: ") as info:
        solve_trajectory(DEC.paird, L, np.array([0.0, 0.0, 1.0, 0.0]), 3)
    assert info.value.step == 1
    mp = Su2K()
    with pytest.raises(SingularJacobian, match="^step 1: "):
        solve_matched_group_trajectory(mp, L, mp.identity(), 3)


def test_an_overflow_error_in_a_solve_is_a_solver_failure_naming_the_step():
    # float ** 400 raises OverflowError, which np.errstate does not turn
    # into a FloatingPointError; at amplitudes 2 and 3 the same Lagrangian
    # overflows to a residual the line search cannot reduce
    G = SO3()
    L = DiscreteLagrangian(lambda g: float(G.log(g) @ G.log(g)) ** 400)
    with pytest.raises(SolverFailure, match="^step 1: ") as info:
        march(GroupGroupoid(G), L, G.exp(5.0 * np.array([0.3, -0.2, 0.5])),
              4)
    assert info.value.step == 1


def test_del_step_circle_constant_increment():
    desc = GroupGroupoid(Circle())
    L = DiscreteLagrangian(lambda th: 0.5 * float(th[0] ** 2))
    traj = solve_trajectory(desc, L, np.array([0.3]), 5)
    incs = [float(a[0]) for a in traj.arrows]
    assert np.allclose(incs, 0.3, atol=1e-9)


def test_del_step_degenerate_lagrangian():
    desc = DEC.paird
    L = DiscreteLagrangian(lambda arr: 1.0)
    with pytest.raises(SingularJacobian):
        del_step(desc, L, np.array([0.0, 0.0, 1.0, 0.0]))


def test_solve_trajectory_so3_momentum_defect():
    desc = GroupGroupoid(SO3())
    G = desc.G
    I = np.diag([1.0, 2.0, 3.0])
    L = DiscreteLagrangian(lambda g: 0.5 * float(
        G.log(g) @ I @ G.log(g)))
    g1 = G.exp(np.array([0.2, -0.1, 0.15]))
    traj = solve_trajectory(desc, L, g1, 8)
    records, defect = momentum_evolution(desc, L, traj)
    assert len(records) == 8
    assert defect < 1e-8


def test_solve_trajectory_records_its_variational_oracle():
    L = trivial_groupoid_lagrangian(DEC, ScenarioConfig("trivial_groupoid"))
    x0 = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    traj = solve_trajectory(DEC.trivial, L, x0, 5)
    assert traj.oracle == variational_oracle(DEC.trivial, L, traj)
    assert traj.oracle <= 1e-6
    assert Trajectory(DEC.trivial, traj.arrows).oracle is None


def test_momentum_evolution_action_groupoid_forcing():
    desc = DEC.actiond
    c = np.array([0.4, -0.3])
    L = DiscreteLagrangian(
        lambda x: 0.5 * float(x[2] ** 2) + 0.2 * float(np.cos(c @ x[:2])))
    g1 = np.array([0.5, -0.2, 0.3])
    traj = solve_trajectory(desc, L, g1, 6)
    records, defect = momentum_evolution(desc, L, traj)
    assert defect < 1e-7


def test_momentum_evolution_single_arrow_zero_defect():
    desc = GroupGroupoid(SO3())
    L = DiscreteLagrangian(lambda g: float(np.sum(g ** 2)))
    traj = Trajectory(desc, [desc.G.random(RNG)])
    _, defect = momentum_evolution(desc, L, traj)
    assert defect == 0.0


def test_momentum_evolution_wrong_descriptor():
    L = DiscreteLagrangian(lambda x: 0.0)
    traj = Trajectory(DEC.paird, [DEC.paird.random_arrow(RNG)])
    with pytest.raises(TagError):
        momentum_evolution(DEC.paird, L, traj)


# -- variational oracle -----------------------------------------------------

def test_oracle_positive_and_negative_controls():
    desc = DEC.paird
    L = DiscreteLagrangian(lambda arr: 0.5 * float(
        np.sum((arr[2:] - arr[:2]) ** 2)))
    solved = solve_trajectory(desc, L, np.array([0.0, 0.0, 1.0, 0.3]), 4)
    assert variational_oracle(desc, L, solved) < 1e-7
    x = np.array([0.0, 0.0, 1.0, 0.3])
    y = np.concatenate([DEC.paird.beta(x), RNG.standard_normal(2) + 3.0])
    unsolved = Trajectory(desc, [x, y])
    assert variational_oracle(desc, L, unsolved) > 1e-2


ORACLE_DESCS = {
    "group": GroupGroupoid(SU2()),
    "pair": DEC.paird,
    "action": DEC.actiond,
    "trivial": DEC.trivial,
    "matched": DEC.matched,
    "so3": GroupGroupoid(SO3()),
    "su2k": Su2K(),
}


@pytest.mark.parametrize("descname", list(ORACLE_DESCS))
def test_oracle_matches_residual_pairing(descname):
    # each fiber component of the junction action's gradient is the
    # residual's component: <dL, left E_i> - <dL, right E_i>
    desc = ORACLE_DESCS[descname]
    rng = np.random.default_rng(6)
    L = smooth_lagrangian(desc.arrow_dim, rng)
    for _ in range(10):
        g = desc.random_arrow(rng)
        g2 = desc.random_with_source(desc.beta(g), rng)
        gap = oracle_gradient(desc, L, g, g2) - del_residual(desc, L, g, g2)
        assert gap.shape == (desc.fiber_dim,)
        assert np.max(np.abs(gap)) < 1e-6


def per_direction_oracle(desc, L, traj):
    """The oracle one fiber direction at a time: the derivative at t = 0 of
    the junction action along t e_i, a one-column stencil each."""
    worst = 0.0
    for gk, gk1 in zip(traj.arrows, traj.arrows[1:]):
        b = desc.beta(gk)
        for e in np.eye(desc.fiber_dim):
            def f(t, e=e):
                c = desc.fiber_elem(b, float(t[0]) * e)
                return L(desc.mul(gk, c)) + L(desc.mul(desc.inv(c), gk1))

            worst = max(worst, abs(float(
                fd_columns(f, np.zeros(1), np.ones((1, 1)))[0])))
    return worst


@settings(max_examples=60, deadline=None)
@given(descname=st.sampled_from(sorted(ORACLE_DESCS)),
       n_arrows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_one_stencil_oracle_equals_the_per_direction_oracle(descname,
                                                            n_arrows, seed):
    desc = ORACLE_DESCS[descname]
    rng = np.random.default_rng(seed)
    L = smooth_lagrangian(desc.arrow_dim, rng)
    arrows = [desc.random_arrow(rng)]
    for _ in range(n_arrows):
        arrows.append(desc.random_with_source(desc.beta(arrows[-1]), rng))
    traj = Trajectory(desc, arrows)
    assert variational_oracle(desc, L, traj) == per_direction_oracle(
        desc, L, traj)


@settings(max_examples=60, deadline=None)
@given(descname=st.sampled_from(sorted(ORACLE_DESCS)),
       n_arrows=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_chain_residuals_equal_the_junction_residuals(descname, n_arrows,
                                                      seed):
    # one gradient per arrow serves both of its junctions, bit for bit
    desc = ORACLE_DESCS[descname]
    rng = np.random.default_rng(seed)
    L = smooth_lagrangian(desc.arrow_dim, rng)
    arrows = [desc.random_arrow(rng)]
    while len(arrows) < n_arrows:
        arrows.append(desc.random_with_source(desc.beta(arrows[-1]), rng))
    points = record_points(L, "gradient")
    chain = del_residuals(desc, L, Trajectory(desc, arrows))
    assert len(points) == n_arrows
    assert len(chain) == n_arrows - 1
    for r, gk, gk1 in zip(chain, arrows, arrows[1:]):
        assert np.array_equal(r, del_residual(desc, L, gk, gk1))


def test_oracle_takes_one_stencil_per_junction(monkeypatch):
    desc = GroupGroupoid(SO3())
    rng = np.random.default_rng(8)
    L = DiscreteLagrangian(lambda g: 0.5 * float(desc.G.log(g)
                                                 @ desc.G.log(g)))
    arrows = [desc.G.random(rng)]
    for _ in range(4):
        arrows.append(desc.random_with_source(desc.beta(arrows[-1]), rng))
    traj = Trajectory(desc, arrows)
    calls = []
    inner = matchdyn.numerics.fd_columns

    def counted(F, x, V):
        calls.append(V.shape)
        return inner(F, x, V)

    monkeypatch.setattr(matchdyn.numerics, "fd_columns", counted)
    variational_oracle(desc, L, traj)
    assert calls == [(desc.fiber_dim, desc.fiber_dim)] * 4


def stacking_lagrangian(name, k_pos, k_rot):
    """A descriptor of the trivial decomposition and an L that both take
    stacks: the spring on the trivial groupoid and its matched form, and on
    the rotated plane a smooth L of elementwise arithmetic."""
    config = ScenarioConfig("trivial_groupoid",
                            params=dict(k_pos=k_pos, k_rot=k_rot))
    spring = trivial_groupoid_lagrangian(DEC, config)
    if name == "trivial":
        return DEC.trivial, spring
    if name == "matched":
        return DEC.matched, matched_lagrangian(DEC, spring)
    return DEC.actiond, DiscreteLagrangian(
        lambda x: (0.5 * k_pos * np.sum(x ** 2, axis=-1)
                   + k_rot * np.sin(x[..., 0] * x[..., 2])), stacks=True)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["trivial", "matched", "action"]),
       k_pos=st.floats(0.5, 2.0), k_rot=st.floats(0.5, 2.0),
       amplitude=st.floats(0.5, 2.0), junctions=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_stacked_oracle_is_the_per_junction_oracle_bit_for_bit(
        name, k_pos, k_rot, amplitude, junctions, seed):
    desc, L = stacking_lagrangian(name, k_pos, k_rot)
    assert desc.stacks and L.stacks
    rng = np.random.default_rng(seed)
    arrows = [desc.random_arrow(rng, amplitude)]
    for _ in range(junctions):
        arrows.append(desc.random_with_source(desc.beta(arrows[-1]), rng,
                                              amplitude))
    reference = np.array([oracle_gradient(desc, L, gk, gk1)
                          for gk, gk1 in zip(arrows, arrows[1:])])
    assert (stacked_oracle_gradients(desc, L, arrows) == reference).all()
    assert variational_oracle(desc, L, Trajectory(desc, arrows)) == float(
        np.max(np.abs(reference)))


@pytest.mark.parametrize("name", ["trivial", "matched", "action"])
def test_the_stacked_oracle_of_one_arrow_is_zero(name):
    desc, L = stacking_lagrangian(name, 1.0, 1.0)
    traj = Trajectory(desc, [desc.random_arrow(np.random.default_rng(3))])
    assert variational_oracle(desc, L, traj) == 0.0


def test_the_oracle_takes_one_stencil_per_stacked_trajectory(monkeypatch):
    # the whole trajectory in one call of fd_stencil, where a descriptor
    # or an L that does not take stacks takes one per junction
    import matchdyn.dynamics as dynamics

    calls = []
    inner = dynamics.fd_stencil

    def counted(F, x, V):
        calls.append(V.shape)
        return inner(F, x, V)

    monkeypatch.setattr(dynamics, "fd_stencil", counted)
    desc, L = stacking_lagrangian("matched", 1.0, 1.0)
    traj = solve_trajectory(desc, L, DEC.phi(INITIAL["trivial_groupoid"][1]),
                            6)
    assert calls == [(desc.fiber_dim, desc.fiber_dim)]
    del calls[:]
    scalar = DiscreteLagrangian(L.evaluate, name=L.name)
    assert variational_oracle(desc, scalar, traj) == traj.oracle
    assert calls == []


def test_momentum_evolution_takes_one_gradient_per_arrow():
    # a gradient-free L is differentiated only by L.gradient, once per arrow
    # (2 arrow_dim evaluations); the orbit forcing is read off that gradient
    desc = DEC.actiond
    c = np.array([0.4, -0.3])
    L = DiscreteLagrangian(
        lambda x: 0.5 * float(x[2] ** 2) + 0.2 * float(np.cos(c @ x[:2])))
    traj = solve_trajectory(desc, L, np.array([0.5, -0.2, 0.3]), 5)
    points = record_points(L, "evaluate")
    momentum_evolution(desc, L, traj)
    assert len(points) == 2 * desc.arrow_dim * len(traj)


# -- trajectory length --------------------------------------------------------

@pytest.mark.parametrize("n_steps", [0, -3])
def test_march_rejects_fewer_than_one_arrow(n_steps):
    desc = GroupGroupoid(SO3())
    with pytest.raises(DomainError):
        march(desc, DiscreteLagrangian(lambda g: 0.0), desc.G.identity(),
              n_steps)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_matched_group_trajectory_rejects_fewer_than_one_arrow(n_steps):
    mp = right_trivial_pair()
    with pytest.raises(DomainError):
        solve_matched_group_trajectory(
            mp, smooth_lagrangian(mp.coord_dim, np.random.default_rng(1)),
            mp.identity(), n_steps)


def test_march_of_one_arrow_is_the_initial_arrow():
    desc = GroupGroupoid(SO3())
    g1 = desc.G.exp(np.array([0.2, -0.1, 0.15]))
    arrows, norms = march(desc, DiscreteLagrangian(lambda g: 0.0), g1, 1)
    assert len(arrows) == 1 and np.array_equal(arrows[0], g1)
    assert norms == []
