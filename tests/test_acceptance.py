"""End-to-end acceptance checks.  Each test prints a single pass/fail line
with the measured quantity so a full run reads as a checklist."""
import time

import numpy as np
import pytest

from matchdyn.algebroid import (
    AlgebroidVector,
    left_invariant,
    left_invariant_generic,
    right_invariant,
    right_invariant_generic,
)
from matchdyn.cli import main
from matchdyn.dynamics import (
    DiscreteLagrangian,
    Trajectory,
    arrow_momenta,
    del_residual,
    del_residual_matched_group,
    momentum_evolution,
    momentum_residuals,
    oracle_gradient,
    solve_trajectory,
)
from matchdyn.groupoids import GroupGroupoid, default_trivial_decomposition
from matchdyn.groups import SO3, SU2
from matchdyn.matched_group import (
    MatchedPairGroup,
    Su2K,
    both_trivial_pair,
    left_trivial_pair,
    right_trivial_pair,
)
from matchdyn.scenarios import (
    ScenarioConfig,
    run_scenario,
    sl2c_lagrangian,
)
from reference import (k_mat2, reduced_momentum_residual, sl2c_compose,
                       su2_mat2)


def report(num, label, ok, detail):
    print("criterion %02d %-28s %s (%s)" % (num, label,
                                            "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def test_01_iwasawa_consistency():
    mp = Su2K()
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        g = mp.G.random(rng)
        h = mp.H.random(rng)
        BA = k_mat2(h) @ su2_mat2(g)
        refac = sl2c_compose(*mp.actions(h, g))
        worst = max(worst, float(np.max(np.abs(BA - refac))))
    dt = time.perf_counter() - t0
    report(1, "iwasawa-consistency", worst <= 1e-9 and dt < 1.0,
           "max %.2e, %.2fs" % (worst, dt))


def test_02_matched_group_axioms():
    mp = Su2K()
    rep = mp.axiom_report(np.random.default_rng(2), n_samples=1000)
    worst = max(v for k, v in rep.items() if k != "bracket_jacobi")
    from matchdyn.groups import Abelian
    bad = MatchedPairGroup(
        Abelian(3), SO3(),
        actions=lambda h, g: (2.0 * np.asarray(h).reshape(3, 3)
                              @ np.asarray(g), np.asarray(h, dtype=float)))
    bad_rep = bad.axiom_report(np.random.default_rng(2), n_samples=20)
    neg = max(bad_rep.values())
    ok = worst <= 1e-9 and neg > 1e-3
    report(2, "matched-group-axioms", ok,
           "max %.2e, negative control %.2e" % (worst, neg))


def test_03_groupoid_axioms():
    dec = default_trivial_decomposition()
    rng = np.random.default_rng(3)
    worst = 0.0
    for desc in (dec.trivial, dec.actiond, dec.paird, dec.matched):
        worst = max(worst, max(desc.axiom_report(rng,
                                                 n_samples=250).values()))
    matched = max(dec.matched.matched_axiom_report(rng,
                                                   n_samples=1000).values())
    ok = worst <= 1e-9 and matched <= 1e-9
    report(3, "groupoid-axioms", ok,
           "groupoid max %.2e, matched max %.2e" % (worst, matched))


def test_04_invariant_field_closed_forms():
    dec = default_trivial_decomposition()
    rng = np.random.default_rng(4)
    worst = 0.0
    for desc in (GroupGroupoid(SU2()), dec.paird, dec.actiond, dec.trivial,
                 dec.matched):
        for _ in range(200):
            g = desc.random_arrow(rng)
            X = AlgebroidVector(desc, desc.beta(g),
                                rng.standard_normal(desc.fiber_dim))
            worst = max(worst, float(np.max(np.abs(
                left_invariant(desc, X, g)
                - left_invariant_generic(desc, X, g)))))
            X = AlgebroidVector(desc, desc.alpha(g),
                                rng.standard_normal(desc.fiber_dim))
            worst = max(worst, float(np.max(np.abs(
                right_invariant(desc, X, g)
                - right_invariant_generic(desc, X, g)))))
    report(4, "invariant-field-oracles", worst <= 1e-6, "max %.2e" % worst)


def _lagrangians(dim, rng):
    Q = rng.standard_normal((dim, dim))
    Q = Q @ Q.T / dim + np.eye(dim)
    c = rng.standard_normal(dim)
    d = rng.standard_normal(dim)
    return [
        DiscreteLagrangian(lambda x, Q=Q: 0.5 * float(x @ Q @ x)),
        DiscreteLagrangian(lambda x, c=c: float(np.sin(c @ x))),
        DiscreteLagrangian(lambda x, Q=Q, d=d: 0.5 * float(x @ Q @ x)
                           + float(np.cos(d @ x))),
    ]


def test_05_oracle_residual_identity():
    dec = default_trivial_decomposition()
    rng = np.random.default_rng(5)
    worst = 0.0
    for desc in (GroupGroupoid(SU2()), dec.paird, dec.actiond, dec.trivial,
                 dec.matched, GroupGroupoid(SO3()), Su2K()):
        for L in _lagrangians(desc.arrow_dim, rng):
            for _ in range(10):
                g = desc.random_arrow(rng)
                g2 = desc.random_with_source(desc.beta(g), rng)
                gap = (oracle_gradient(desc, L, g, g2)
                       - del_residual(desc, L, g, g2))
                worst = max(worst, float(np.max(np.abs(gap))))
    report(5, "oracle-residual-identity", worst <= 1e-6, "max %.2e" % worst)


def test_06_momentum_recursions():
    desc = GroupGroupoid(SO3())
    G = desc.G
    I = np.diag([1.0, 2.0, 3.0])
    L = DiscreteLagrangian(lambda g: 0.5 * float(G.log(g) @ I @ G.log(g)))
    traj = solve_trajectory(desc, L, G.exp(np.array([0.2, -0.1, 0.15])), 20)
    _, defect_group = momentum_evolution(desc, L, traj)

    dec = default_trivial_decomposition()
    c = np.array([0.4, -0.3])
    La = DiscreteLagrangian(
        lambda x: 0.5 * float(x[2] ** 2) + 0.2 * float(np.cos(c @ x[:2])))
    traj_a = solve_trajectory(dec.actiond, La,
                              np.array([0.5, -0.2, 0.3]), 20)
    _, defect_forced = momentum_evolution(dec.actiond, La, traj_a)
    ok = defect_group <= 1e-8 and defect_forced <= 1e-7
    report(6, "momentum-recursions", ok,
           "group %.2e, forced %.2e" % (defect_group, defect_forced))


def test_07_reduction_chain():
    # the momentum form against the paper's semidirect and decoupled forms,
    # written by hand from each degenerate pair's actions
    rng = np.random.default_rng(7)
    worst = 0.0
    for mp in (right_trivial_pair(), left_trivial_pair(),
               both_trivial_pair()):
        for L in _lagrangians(mp.coord_dim, rng):
            for _ in range(23):
                uk, uk1 = mp.random(rng), mp.random(rng)
                full = del_residual_matched_group(mp, L, uk, uk1)
                red = reduced_momentum_residual(mp, L, uk, uk1)
                worst = max(worst, float(np.max(np.abs(full - red))))
    report(7, "residual-reduction-chain", worst <= 1e-9, "max %.2e" % worst)


def test_08_phi_correspondence():
    cfg = ScenarioConfig("trivial_groupoid", steps=10)
    rep, _, _ = run_scenario(cfg)
    ok = (max(rep.residual_norms) <= 1e-9
          and rep.correspondence_gap <= 1e-6)
    report(8, "phi-correspondence", ok,
           "residual %.2e, gap %.2e" % (max(rep.residual_norms),
                                        rep.correspondence_gap))


def test_09_sl2c_closed_vs_generic():
    t0 = time.perf_counter()
    cfg = ScenarioConfig("sl2c", steps=10,
                         params={"coupling": 0.25, "ig1": 2.0, "ih3": 0.5})
    _, _, rows = run_scenario(cfg)
    # the momentum form at the solved arrows, closed and finite-difference
    mp = Su2K()
    arrows = [np.array(row[1:8]) for row in rows]
    momenta = arrow_momenta(mp, sl2c_lagrangian(mp, cfg), arrows)
    gap = max(float(np.max(np.abs(rc - rf))) for rc, rf in zip(
        momentum_residuals(mp, arrows, momenta),
        momentum_residuals(mp.generic(), arrows, momenta)))
    dt = time.perf_counter() - t0
    ok = gap <= 1e-7 and dt < 5.0
    report(9, "sl2c-closed-vs-generic", ok, "gap %.2e, %.2fs" % (gap, dt))


def test_10_cli_determinism(tmp_path):
    cfgp = tmp_path / "cfg.ini"
    cfgp.write_text("[scenario]\nid = sl2c\nsteps = 6\nseed = 11\n\n"
                    "[initial]\ncoords = 0.2 -0.1 0.15 0.1 0.05 -0.1\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rc_run = main(["run", "--config", str(cfgp), "--out", out1])
    rc_chk = main(["check", "residual", out1])
    main(["run", "--config", str(cfgp), "--out", out2])
    identical = open(out1).read() == open(out2).read()
    ok = rc_run == 0 and rc_chk == 0 and identical
    report(10, "cli-determinism", ok,
           "run %d, check %d, identical %s" % (rc_run, rc_chk, identical))
