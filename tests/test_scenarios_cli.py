import json

import numpy as np
import pytest

from matchdyn.cli import main
from matchdyn.dynamics import matched_group_momenta
from matchdyn.errors import DomainError, FormulaMismatch, SingularJacobian
from matchdyn.matched_group import Su2K
from matchdyn.scenarios import (
    ScenarioConfig,
    check_residual_file,
    read_trajectory_csv,
    run_axiom_suites,
    run_scenario,
    run_sl2c,
    run_trivial_groupoid,
    sl2c_lagrangian,
    write_trajectory_csv,
)


# -- config -----------------------------------------------------------------

def test_config_from_ini(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[scenario]\nid = sl2c\nsteps = 7\nseed = 3\ntol = 1e-11\n"
                 "out = x.csv\n\n[lagrangian]\nname = quadratic\n"
                 "coupling = 0.2\nig1 = 2.0\n\n[initial]\n"
                 "coords = 0.1 0 0 0 0.05 0\n")
    cfg = ScenarioConfig.from_ini(str(p))
    assert cfg.scenario == "sl2c"
    assert cfg.steps == 7 and cfg.tol == 1e-11
    assert cfg.out == "x.csv"
    assert cfg.params == {"coupling": 0.2, "ig1": 2.0}
    assert np.allclose(cfg.initial, [0.1, 0, 0, 0, 0.05, 0])


def test_config_validation():
    with pytest.raises(DomainError):
        ScenarioConfig("nope")
    with pytest.raises(DomainError):
        ScenarioConfig("sl2c", steps=1)
    with pytest.raises(DomainError):
        ScenarioConfig("sl2c", tol=-1.0)


def test_config_bad_file(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[scenario]\nid = sl2c\nsteps = many\n")
    with pytest.raises(DomainError):
        ScenarioConfig.from_ini(str(p))
    with pytest.raises(DomainError):
        ScenarioConfig.from_ini(str(tmp_path / "missing.ini"))


def test_config_comment_roundtrip():
    cfg = ScenarioConfig("trivial_groupoid", steps=5, tol=1e-9,
                         params={"k_pos": 2.0},
                         initial=[0.1, 0.2, 0.3, 0.4, 0.5])
    back = ScenarioConfig.from_comment_lines(cfg.to_comment_lines())
    assert back.scenario == cfg.scenario
    assert back.steps == cfg.steps
    assert back.tol == cfg.tol
    assert back.params == cfg.params
    assert np.array_equal(back.initial, cfg.initial)


# -- trivial groupoid scenario ----------------------------------------------

def test_run_trivial_groupoid_solves_and_corresponds():
    cfg = ScenarioConfig("trivial_groupoid", steps=10)
    report, header, rows = run_trivial_groupoid(cfg)
    assert len(rows) == 10
    assert max(report.residual_norms) < 1e-9
    assert report.oracle_max < 1e-7
    assert report.correspondence_gap < 1e-6


def test_run_trivial_groupoid_stationary_at_unit():
    cfg = ScenarioConfig("trivial_groupoid", steps=4,
                         initial=[0.2, -0.4, 0.0, 0.2, -0.4])
    report, _, rows = run_trivial_groupoid(cfg)
    assert max(report.residual_norms) < 1e-10
    for row in rows:
        assert np.allclose(row[1:6], [0.2, -0.4, 0.0, 0.2, -0.4], atol=1e-9)


def test_run_trivial_groupoid_degenerate_lagrangian():
    cfg = ScenarioConfig("trivial_groupoid", steps=3,
                         params={"k_pos": 0.0, "k_rot": 0.0})
    with pytest.raises(SingularJacobian):
        run_trivial_groupoid(cfg)


def test_run_trivial_groupoid_bad_initial():
    with pytest.raises(DomainError):
        run_trivial_groupoid(ScenarioConfig("trivial_groupoid",
                                            initial=[1.0, 2.0]))


# -- sl2c scenario ----------------------------------------------------------

def test_run_sl2c_closed_matches_generic():
    cfg = ScenarioConfig("sl2c", steps=10, params={"coupling": 0.3,
                                                   "ig1": 2.0, "ih2": 0.5})
    report, header, rows = run_sl2c(cfg)
    assert len(rows) == 10
    assert max(report.residual_norms) < 1e-9
    assert report.formula_gap < 1e-7


def test_run_sl2c_stationary_at_identity():
    cfg = ScenarioConfig("sl2c", steps=4, initial=[0.0] * 6)
    report, _, rows = run_sl2c(cfg)
    assert max(report.residual_norms) < 1e-10
    e = Su2K().identity()
    for row in rows:
        assert np.allclose(row[1:8], e, atol=1e-9)


def test_run_sl2c_zero_coupling_momentum_recursion():
    # separable Lagrangian: the xi block of the solved recursion reads as an
    # explicit update for the SU(2) momentum; recompute the update defect
    cfg = ScenarioConfig("sl2c", steps=8, params={"coupling": 0.0})
    mp = Su2K()
    L = sl2c_lagrangian(mp, cfg)
    _, _, rows = run_sl2c(cfg)
    arrows = [np.array(row[1:8]) for row in rows]
    defect = 0.0
    for uk, uk1 in zip(arrows, arrows[1:]):
        gk, hk = mp.split(uk)
        mu_k, _ = matched_group_momenta(mp, L, uk)
        mu_k1, _ = matched_group_momenta(mp, L, uk1)
        d2k = L.gradient(uk)[mp.G.coord_dim:]
        predicted = (mp.tr_star(mp.G.coAd(gk, mu_k), hk)
                     + mp.a_star(hk, d2k))
        defect = max(defect, float(np.max(np.abs(predicted - mu_k1))))
    assert defect < 1e-7


def test_run_sl2c_formula_mismatch_is_fatal(monkeypatch):
    monkeypatch.setattr(Su2K, "tr_star", lambda self, mu, h: 2.0 * np.asarray(
        mu, dtype=float))
    with pytest.raises(FormulaMismatch):
        run_sl2c(ScenarioConfig("sl2c", steps=3))


# -- trajectory files -------------------------------------------------------

def test_csv_roundtrip(tmp_path):
    cfg = ScenarioConfig("sl2c", steps=4)
    report, header, rows = run_sl2c(cfg)
    p = tmp_path / "t.csv"
    write_trajectory_csv(str(p), cfg, header, rows)
    # files written before the seed field was dropped still load
    old = tmp_path / "old.csv"
    old.write_text(p.read_text().replace("# steps=4\n",
                                         "# steps=4\n# seed=5\n"))
    assert "# seed=5\n" in old.read_text()
    for path in (p, old):
        cfg2, header2, rows2 = read_trajectory_csv(str(path))
        assert cfg2.scenario == "sl2c" and cfg2.steps == 4
        assert header2 == header
        assert np.array_equal(np.array(rows2), np.array(rows))


def test_check_residual_file_detects_corruption(tmp_path):
    cfg = ScenarioConfig("sl2c", steps=4)
    _, header, rows = run_sl2c(cfg)
    p = tmp_path / "t.csv"
    write_trajectory_csv(str(p), cfg, header, rows)
    ok, _ = check_residual_file(str(p))
    assert ok
    rows[1][1] += 0.05
    write_trajectory_csv(str(p), cfg, header, rows)
    ok, report = check_residual_file(str(p))
    assert not ok


def test_run_scenario_dispatch():
    report, _, _ = run_scenario(ScenarioConfig("sl2c", steps=3))
    assert report.scenario == "sl2c"
    report, _, _ = run_scenario(ScenarioConfig("trivial_groupoid", steps=3))
    assert report.scenario == "trivial_groupoid"


def test_axiom_suites_pass():
    ok, report = run_axiom_suites(seed=1, n_samples=50)
    assert ok
    assert max(v for k, v in report.items()
               if not k.endswith("bracket_jacobi")) < 1e-9


# -- CLI --------------------------------------------------------------------

def test_cli_run_and_check_roundtrip(tmp_path):
    out = str(tmp_path / "run.csv")
    assert main(["run", "sl2c", "--steps", "4", "--out", out]) == 0
    assert main(["check", "residual", out]) == 0


def test_cli_determinism(tmp_path):
    cfgp = tmp_path / "cfg.ini"
    cfgp.write_text("[scenario]\nid = trivial_groupoid\nsteps = 5\n"
                    "seed = 42\n\n[initial]\ncoords = 0 0 0.3 1 0\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["run", "--config", str(cfgp), "--out", out1]) == 0
    assert main(["run", "--config", str(cfgp), "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def test_cli_check_axioms():
    assert main(["check", "axioms", "--samples", "30"]) == 0


def test_cli_export(tmp_path, capsys):
    rep = str(tmp_path / "report.json")
    assert main(["export", "sl2c", "--steps", "3", "--report", rep]) == 0
    data = json.loads(open(rep).read())
    assert data["scenario"] == "sl2c"
    assert len(data["residual_norms"]) == 2


def test_cli_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2
    assert main([]) == 2
    assert main(["run", "sl2c", "--steps", "1"]) == 2
    assert main(["run", "sl2c", "--tol", "-1"]) == 2
    assert main(["run", "sl2c", "--seed", "3", "--out",
                 str(tmp_path / "s.csv")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nid = sl2c\nsteps = nope\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["check", "residual", str(tmp_path / "missing.csv")]) == 2
