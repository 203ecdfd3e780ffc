import numpy as np
import pytest

from matchdyn.algebroid import AlgebroidVector, a_phi
from matchdyn.dynamics import (
    DiscreteLagrangian,
    Trajectory,
    action_sum,
    del_residual,
    del_residual_matched,
    del_residual_matched_group,
    del_step,
    del_step_matched_group,
    _momentum_half,
    matched_group_momenta,
    momentum_evolution,
    oracle_directional,
    solve_matched_group_trajectory,
    solve_trajectory,
    variational_oracle,
)
from matchdyn.errors import NoConvergence, NotComposable, SingularJacobian, TagError
from matchdyn.groupoids import (
    GroupGroupoid,
    Groupoid,
    MatchedPairGroupoid,
    default_trivial_decomposition,
)
from matchdyn.groups import SO3, SU2, Circle, Group, KGroup
from matchdyn.matched_group import (
    Su2K,
    both_trivial_pair,
    left_trivial_pair,
    right_trivial_pair,
)
from matchdyn.scenarios import (
    ScenarioConfig,
    sl2c_lagrangian,
    trivial_groupoid_lagrangian,
)

RNG = np.random.default_rng(20240821)

DEC = default_trivial_decomposition()


def smooth_lagrangian(dim, rng):
    Q = rng.standard_normal((dim, dim))
    Q = Q @ Q.T / dim + np.eye(dim)
    c = rng.standard_normal(dim)
    return DiscreteLagrangian(
        lambda x: 0.5 * float(x @ Q @ x) + float(np.sin(c @ x)))


def record_gradient_points(L):
    """Replace L.gradient by a wrapper that logs every point it is asked
    for; returns the log."""
    points = []
    gradient = L.gradient

    def logged(x):
        points.append(np.array(x, dtype=float))
        return gradient(x)

    L.gradient = logged
    return points


# -- action sums ------------------------------------------------------------

def test_action_sum_basics():
    desc = DEC.paird
    arrows = [np.array([0.0, 0.0, 1.0, 0.0]), np.array([1.0, 0.0, 2.0, 0.0])]
    L = DiscreteLagrangian(lambda x: 1.5)
    traj = Trajectory(desc, arrows)
    assert action_sum(L, traj) == 3.0
    assert action_sum(L, Trajectory(desc, arrows[:1])) == 1.5
    L2 = smooth_lagrangian(4, RNG)
    assert action_sum(L2, traj) == pytest.approx(sum(L2(a) for a in arrows))


def test_trajectory_rejects_broken_gluing():
    with pytest.raises(NotComposable):
        Trajectory(DEC.paird, [np.array([0.0, 0.0, 1.0, 0.0]),
                               np.array([1.1, 0.0, 2.0, 0.0])])


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
    md = DEC.matched
    L = smooth_lagrangian(md.arrow_dim, RNG)
    for _ in range(10):
        x = md.random_arrow(RNG)
        y = md.random_with_source(md.beta(x), RNG)
        assert np.allclose(del_residual_matched(md, L, x, y),
                           del_residual(md, L, x, y), atol=1e-7)


def test_matched_residual_both_trivial_splits():
    G1 = GroupGroupoid(SO3())
    G2 = GroupGroupoid(SO3())
    md = MatchedPairGroupoid(G1, G2,
                             act_on_g=lambda h, g: np.asarray(g, dtype=float),
                             act_on_h=lambda h, g: np.asarray(h, dtype=float))
    L1 = smooth_lagrangian(9, RNG)
    L2 = smooth_lagrangian(9, RNG)
    L = DiscreteLagrangian(lambda x: L1(x[:9]) + L2(x[9:]))
    for _ in range(5):
        x = md.random_arrow(RNG)
        y = md.random_arrow(RNG)
        r = del_residual_matched(md, L, x, y)
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
        rm = del_residual_matched(md, Lm, DEC.phi(x), DEC.phi(y))
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
        r1 = del_residual_matched_group(mp, L, uk, uk1, form="full")
        r2 = del_residual(mp, L, uk, uk1)
        assert np.allclose(r1, r2, atol=1e-7)


def test_matched_group_is_its_matched_pair_groupoid():
    # over a point the paper's six-term residual is the two-mat-vec one, and
    # the pair steps exactly as its group groupoid does
    rng = np.random.default_rng(34)
    for mp in (Su2K(), right_trivial_pair(), left_trivial_pair(),
               both_trivial_pair()):
        L = smooth_lagrangian(mp.coord_dim, rng)
        for _ in range(5):
            uk, uk1 = mp.random(rng), mp.random(rng)
            gap = (del_residual_matched(mp, L, uk, uk1)
                   - del_residual(mp, L, uk, uk1))
            assert np.max(np.abs(gap)) <= 1e-12
        e = mp.identity()
        L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2))
                               + 0.1 * float(np.sin(u[0] + u[-1])))
        uk = mp.exp(0.05 * rng.standard_normal(mp.dim))
        assert np.array_equal(del_step_matched_group(mp, L, uk),
                              del_step(GroupGroupoid(mp), L, uk))


@pytest.mark.parametrize("builder,form", [
    (right_trivial_pair, "right-trivial"),
    (left_trivial_pair, "left-trivial"),
    (both_trivial_pair, "both-trivial"),
])
def test_matched_group_reduction_chain(builder, form):
    mp = builder()
    L = smooth_lagrangian(mp.coord_dim, RNG)
    for _ in range(10):
        uk = mp.random(RNG)
        uk1 = mp.random(RNG)
        full = del_residual_matched_group(mp, L, uk, uk1, form="full")
        red = del_residual_matched_group(mp, L, uk, uk1, form=form)
        assert np.allclose(full, red, atol=1e-9)


def test_matched_group_decoupled_momentum_recursions():
    mp = both_trivial_pair()
    L1 = smooth_lagrangian(9, RNG)
    L2 = smooth_lagrangian(9, RNG)
    L = DiscreteLagrangian(lambda u: L1(u[:9]) + L2(u[9:]))
    uk = mp.random(RNG)
    uk1 = mp.random(RNG)
    r = del_residual_matched_group(mp, L, uk, uk1, form="both-trivial")
    mu_k, nu_k = matched_group_momenta(mp, L, uk)
    mu_k1, nu_k1 = matched_group_momenta(mp, L, uk1)
    gk, hk = mp.split(uk)
    assert np.allclose(r[:3], mp.G.coAd(gk, mu_k) - mu_k1, atol=1e-10)
    assert np.allclose(r[3:], mp.H.coAd(hk, nu_k) - nu_k1, atol=1e-10)


def test_matched_group_residual_one_gradient_per_arrow():
    rng = np.random.default_rng(31)
    mp = Su2K()
    L = smooth_lagrangian(mp.coord_dim, rng)
    points = record_gradient_points(L)
    del_residual_matched_group(mp, L, mp.random(rng), mp.random(rng),
                               form="full")
    assert len(points) == 2


def test_su2k_outgoing_half_builds_two_lift_matrices(monkeypatch):
    # mu and nu need the SU(2) and K right lifts at u; the closed b* needs
    # no third one
    built = []
    for cls in (SU2, KGroup):
        def counted(self, side, g, lift_matrix=cls.lift_matrix):
            built.append((self.name, side))
            return lift_matrix(self, side, g)

        monkeypatch.setattr(cls, "lift_matrix", counted)
    rng = np.random.default_rng(33)
    mp = Su2K()
    L = smooth_lagrangian(mp.coord_dim, rng)
    _momentum_half(mp, L, mp.random(rng), "full", "right")
    assert built == [("su2", "right"), ("k", "right")]


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
    uk1 = del_step_matched_group(mp, L, uk)
    assert np.max(np.abs(del_residual(GroupGroupoid(mp), L, uk, uk1))) < 1e-10
    dec = default_trivial_decomposition()
    L = trivial_groupoid_lagrangian(dec, ScenarioConfig("trivial_groupoid"))
    xk = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    xk1 = del_step(dec.trivial, L, xk)
    assert np.max(np.abs(del_residual(dec.trivial, L, xk, xk1))) < 1e-10


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


def test_matched_group_step_evaluates_incoming_half_once():
    mp = Su2K()
    e = mp.identity()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2))
                           + 0.1 * float(np.sin(u[0] + u[5])))
    uk = mp.exp(0.05 * np.random.default_rng(32).standard_normal(6))
    points = record_gradient_points(L)
    # a guess away from u_k, so no Newton trial point coincides with it
    del_step_matched_group(mp, L, uk, guess=mp.exp(0.1 * np.ones(6)))
    assert sum(np.array_equal(p, uk) for p in points) == 1
    assert len(points) > 1


def test_matched_group_identity_critical_point():
    mp = Su2K()
    e = mp.identity()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum((u - e) ** 2)))
    r = del_residual_matched_group(mp, L, e, e)
    assert np.max(np.abs(r)) < 1e-9


def test_matched_group_unknown_form():
    mp = Su2K()
    L = DiscreteLagrangian(lambda u: 0.0)
    with pytest.raises(TagError):
        del_residual_matched_group(mp, L, mp.identity(), mp.identity(),
                                   form="nope")


def test_matched_group_trajectory_rejects_unknown_form_before_stepping(
        monkeypatch):
    import matchdyn.dynamics as dynamics

    steps = []
    for name in ("del_step", "del_step_matched_group"):
        monkeypatch.setattr(dynamics, name,
                            lambda *a, name=name, **kw: steps.append(name))
    mp = Su2K()
    L = DiscreteLagrangian(lambda u: 0.5 * float(np.sum(u ** 2)))
    with pytest.raises(TagError):
        solve_matched_group_trajectory(mp, L, mp.identity(), 3, form="nope")
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
    nxt = del_step(desc, L, np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.allclose(nxt, [1.0, 0.0, 2.0, 0.0], atol=1e-9)


def test_del_step_builds_one_jacobian_per_newton_iteration(monkeypatch):
    import matchdyn.dynamics
    import matchdyn.numerics

    calls = {"jacobian": 0, "solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every namespace that imports fd_jacobian counts; each Newton iteration
    # solves one linear system
    jac = counted("jacobian", matchdyn.numerics.fd_jacobian)
    monkeypatch.setattr(matchdyn.numerics, "fd_jacobian", jac)
    monkeypatch.setattr(matchdyn.dynamics, "fd_jacobian", jac)
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    L = DiscreteLagrangian(lambda x: 0.5 * float(np.sum((x[3:] - x[:2]) ** 2))
                           + 0.5 * float(x[2] ** 2))
    # the guess is not a root, so Newton iterates at least once
    nxt = del_step(DEC.trivial, L, np.array([0.0, 0.0, 0.3, 1.0, 0.0]),
                   guess=np.array([1.0, 0.0, 0.0, 1.5, 0.5]))
    assert np.allclose(nxt, [1.0, 0.0, 0.3, 2.0, 0.0], atol=1e-9)
    assert calls["solve"] >= 1
    assert calls["jacobian"] == calls["solve"]


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


@pytest.mark.parametrize("descname", ["group", "pair", "action", "trivial",
                                      "matched"])
def test_oracle_matches_residual_pairing(descname):
    desc = {
        "group": GroupGroupoid(SU2()),
        "pair": DEC.paird,
        "action": DEC.actiond,
        "trivial": DEC.trivial,
        "matched": DEC.matched,
    }[descname]
    rng = np.random.default_rng(6)
    L = smooth_lagrangian(desc.arrow_dim, rng)
    for _ in range(10):
        g = desc.random_arrow(rng)
        g2 = desc.random_with_source(desc.beta(g), rng)
        r = del_residual(desc, L, g, g2)
        z = rng.standard_normal(desc.fiber_dim)
        X = AlgebroidVector(desc, desc.beta(g), z)
        assert abs(oracle_directional(desc, L, g, g2, X) - float(r @ z)) < 1e-6
