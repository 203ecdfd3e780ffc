import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchdyn import cli, scenarios
from matchdyn.cli import main
from matchdyn.dynamics import (
    DiscreteLagrangian,
    arrow_momenta,
    matched_group_momenta,
    momentum_residuals,
)
from matchdyn.errors import DomainError, SingularJacobian
from matchdyn.groupoids import default_trivial_decomposition
from matchdyn.groups import Circle, Group
from matchdyn.matched_group import Su2K
from matchdyn.numerics import fd_gradient
from matchdyn.scenarios import (
    CLOSED_ACTIONS,
    HEADERS,
    REPRODUCE_TOL,
    RunReport,
    ScenarioConfig,
    check_residual_file,
    matched_lagrangian,
    read_trajectory_csv,
    run_axiom_suites,
    run_scenario,
    run_sl2c,
    run_trivial_groupoid,
    sl2c_lagrangian,
    trivial_groupoid_lagrangian,
    write_trajectory_csv,
)

# trajectory files written with finite-difference derivatives, before files
# recorded how they were written: default configs, 4 steps
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cli_non_finite_tol_is_a_config_error(tmp_path, tol):
    # not a line search that cannot reach a NaN, nor a run of unsolved arrows
    out = tmp_path / "run.csv"
    assert main(["run", "sl2c", "--tol", tol, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[scenario]\nid = trivial_groupoid\n\n[initial]\n"
    "coords = 0 nan 0.3 1 0\n",
    "[scenario]\nid = trivial_groupoid\n\n[lagrangian]\nname = spring\n"
    "k_pos = -inf\n",
    "[scenario]\nid = sl2c\n\n[lagrangian]\nname = quadratic\nig1 = inf\n",
    "[scenario]\nid = sl2c\n\n[initial]\ncoords = nan 0 0 0 0 0\n",
    "[scenario]\nid = sl2c\ntol = nan\n",
])
def test_ini_non_finite_value_is_a_config_error(tmp_path, text):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("scenario", sorted(HEADERS))
def test_check_residual_non_finite_header_tol_is_a_config_error(
        tmp_path, scenario):
    out = tmp_path / "run.csv"
    assert main(["run", scenario, "--steps", "3", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# tol=1e-10\n" in text
    out.write_text(text.replace("# tol=1e-10\n", "# tol=nan\n"))
    assert main(["check", "residual", str(out)]) == 2


def test_config_bad_file(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[scenario]\nid = sl2c\nsteps = many\n")
    with pytest.raises(DomainError):
        ScenarioConfig.from_ini(str(p))
    with pytest.raises(DomainError):
        ScenarioConfig.from_ini(str(tmp_path / "missing.ini"))
    # no section header: a configparser syntax error
    p.write_text("steps = 3\n")
    with pytest.raises(DomainError):
        ScenarioConfig.from_ini(str(p))
    assert main(["run", "--config", str(p)]) == 2


def test_ini_config_and_its_csv_header_read_back_the_same(tmp_path):
    out = tmp_path / "t.csv"
    p = tmp_path / "cfg.ini"
    # an INI derivatives line is not an option, and is ignored
    p.write_text("[scenario]\nid = trivial_groupoid\nsteps = 3\n"
                 "tol = 1e-9\nderivatives = fd\nout = %s\n\n[lagrangian]\n"
                 "name = spring\nk_pos = 2.0\n\n[initial]\n"
                 "coords = 0 0 0.3 1 0\n" % out)
    assert main(["run", "--config", str(p)]) == 0
    ini = ScenarioConfig.from_ini(str(p))
    csv, _, _ = read_trajectory_csv(str(out))
    assert ini.derivatives == csv.derivatives == "exact"
    assert ((ini.steps, ini.tol, ini.lagrangian, ini.params)
            == (csv.steps, csv.tol, csv.lagrangian, csv.params)
            == (3, 1e-9, "spring", {"k_pos": 2.0}))
    assert np.array_equal(ini.initial, csv.initial)


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
    assert back.derivatives == "exact"


# -- closed gradients against their finite-difference oracle ---------------

def fd_reference(L, x):
    """The gradient=None path, which is plain finite differences of L."""
    fd = DiscreteLagrangian(L.evaluate).gradient(x)
    assert np.array_equal(fd, fd_gradient(L.evaluate, x))
    return fd


SL2C_PARAMS = ["ig1", "ig2", "ig3", "ih1", "ih2", "ih3"]


@settings(max_examples=40, deadline=None)
@given(inertia=st.lists(st.floats(0.1, 5.0), min_size=6, max_size=6),
       coupling=st.floats(-1.0, 1.0),
       # nearer K's chart edge c = -1 the finite differences lose accuracy
       w=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
# the identity, SU(2) inside log's |v| < 1e-14 ball, K inside |c| <= 1e-8
@example(inertia=[1.0] * 6, coupling=0.3, w=[0.0] * 6)
@example(inertia=[2.0, 1.0, 0.5, 1.0, 3.0, 1.0], coupling=0.7,
         w=[1e-15, 0.0, 0.0, 0.4, -0.3, 0.2])
@example(inertia=[2.0, 1.0, 0.5, 1.0, 3.0, 1.0], coupling=-0.4,
         w=[0.3, -0.2, 0.5, 0.8, -0.6, 1e-9])
def test_quadratic_gradient_matches_finite_differences(inertia, coupling, w):
    params = dict(zip(SL2C_PARAMS, inertia), coupling=coupling)
    mp = Su2K()
    L = sl2c_lagrangian(mp, ScenarioConfig("sl2c", params=params))
    u = mp.exp(np.array(w))
    assert np.max(np.abs(L.gradient(u) - fd_reference(L, u))) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(k_pos=st.floats(0.0, 5.0), k_rot=st.floats(0.0, 5.0),
       y=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7))
def test_spring_gradients_match_finite_differences(k_pos, k_rot, y):
    dec = default_trivial_decomposition()
    L = trivial_groupoid_lagrangian(dec, ScenarioConfig(
        "trivial_groupoid", params={"k_pos": k_pos, "k_rot": k_rot}))
    Lm = matched_lagrangian(dec, L)
    y = np.array(y)
    x = dec.phi_inv(y)
    assert np.max(np.abs(L.gradient(x) - fd_reference(L, x))) <= 1e-7
    assert np.max(np.abs(Lm.gradient(y) - fd_reference(Lm, y))) <= 1e-7


# -- trivial groupoid scenario ----------------------------------------------

def test_run_trivial_groupoid_solves_and_corresponds():
    cfg = ScenarioConfig("trivial_groupoid", steps=10)
    report, header, rows = run_trivial_groupoid(cfg)
    assert len(rows) == 10
    assert max(report.residual_norms) < 1e-9
    assert report.oracle_max < 1e-7
    assert report.correspondence_gap < 1e-6


# the bench's trivial_groupoid inputs: the default arrow at 0.5-2x plus
# noise of scale 0.05 (here up to 4 sigma), k_pos and k_rot in 0.5-2
@settings(max_examples=15, deadline=None)
@given(amplitude=st.floats(0.5, 2.0),
       noise=st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5),
       k_pos=st.floats(0.5, 2.0), k_rot=st.floats(0.5, 2.0),
       steps=st.sampled_from([2, 3, 4]))
def test_run_trivial_groupoid_solves_the_bench_inputs(amplitude, noise, k_pos,
                                                      k_rot, steps):
    initial = amplitude * np.array([0.0, 0.0, 0.3, 1.0, 0.0]) + noise
    report, _, _ = run_trivial_groupoid(ScenarioConfig(
        "trivial_groupoid", steps=steps, initial=initial,
        params={"k_pos": k_pos, "k_rot": k_rot}))
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
    # the momentum form at the solved arrows, closed and finite-difference
    mp = Su2K()
    arrows = [np.array(row[1:8]) for row in rows]
    momenta = arrow_momenta(mp, sl2c_lagrangian(mp, cfg), arrows)
    assert max(float(np.max(np.abs(rc - rf))) for rc, rf in zip(
        momentum_residuals(mp, arrows, momenta),
        momentum_residuals(mp.generic(), arrows, momenta))) < 1e-7


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
        dk, mu_k, _ = matched_group_momenta(mp, L, uk)
        _, mu_k1, _ = matched_group_momenta(mp, L, uk1)
        d2k = dk[mp.G.coord_dim:]
        A_g, D_h = mp.g_fiber_actions(hk)
        predicted = A_g.T @ mp.G.coAd(gk, mu_k) + D_h.T @ d2k
        defect = max(defect, float(np.max(np.abs(predicted - mu_k1))))
    assert defect < 1e-7


def test_run_sl2c_builds_at_most_one_jacobian_per_junction(monkeypatch):
    import matchdyn.dynamics
    import matchdyn.groups
    import matchdyn.numerics

    calls = []
    jacobian = matchdyn.numerics.fd_jacobian

    def counted(*args):
        calls.append(1)
        return jacobian(*args)

    for module in (matchdyn.numerics, matchdyn.dynamics, matchdyn.groups):
        monkeypatch.setattr(module, "fd_jacobian", counted)
    report, _, _ = run_sl2c(ScenarioConfig("sl2c", steps=10))
    assert max(report.residual_norms) <= 1e-10
    assert len(calls) <= len(report.residual_norms) == 9


def test_run_sl2c_runs_no_matrix_inverse_or_stacked_ad(monkeypatch):
    # Su2K's actions come off one column and SU2, K carry closed Ad
    # matrices; the SL(2, C) inverse, the column-stacked Ad and the
    # finite-difference induced actions of generic() are references
    from matchdyn.groupoids import MatchedPairGroupoid
    from matchdyn.groups import Group
    from matchdyn.matched_group import MatchedPairGroup

    def reference(*args, **kwargs):
        raise AssertionError("reference called in run sl2c")

    monkeypatch.setattr(np.linalg, "inv", reference)
    monkeypatch.setattr(Group, "Ad_matrix", reference)
    monkeypatch.setattr(MatchedPairGroup, "generic", reference)
    for name in ("g_fiber_actions", "h_fiber_actions"):
        monkeypatch.setattr(MatchedPairGroupoid, name, reference)
    report, _, _ = run_sl2c(ScenarioConfig("sl2c", steps=4))
    assert max(report.residual_norms) <= 1e-10


def break_one_block(monkeypatch, name, broken):
    """Patch Su2K's closed pair that holds the block ``name`` of
    CLOSED_ACTIONS, so the block reads broken(block) and its twin is as it
    was; generic()'s finite-difference pairs stay as they are."""
    index = CLOSED_ACTIONS.index(name)
    pair = ("g_fiber_actions", "h_fiber_actions")[index // 2]
    closed = getattr(Su2K, pair)

    def patched(self, x):
        blocks = list(closed(self, x))
        blocks[index % 2] = broken(blocks[index % 2])
        return tuple(blocks)

    monkeypatch.setattr(Su2K, pair, patched)


@pytest.mark.parametrize("name", list(CLOSED_ACTIONS))
def test_check_axioms_fails_a_broken_closed_su2k_action(monkeypatch, name):
    # each block of the closed induced-action pairs is checked against
    # generic()'s finite-difference one
    break_one_block(monkeypatch, name, lambda block: 2.0 * block)
    ok, report = run_axiom_suites(n_samples=10)
    assert not ok
    assert [key for key, val in report.items()
            if ".closed_vs_generic." in key and val > 1e-7] == [
                "su2k.closed_vs_generic." + name]
    assert main(["check", "axioms", "--samples", "10"]) == 1


@pytest.mark.parametrize("name", ["dagger_on_h", "dagger_on_g"])
def test_check_axioms_fails_a_nan_closed_su2k_action(monkeypatch, name):
    # the two dagger blocks feed no bracket, so only their entries see it
    break_one_block(monkeypatch, name, lambda block: np.nan * block)
    ok, report = run_axiom_suites(n_samples=5)
    assert not ok and np.isnan(report["su2k.closed_vs_generic." + name])
    assert main(["check", "axioms", "--samples", "5"]) == 1


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
    failures, _ = check_residual_file(str(p))
    assert failures == []
    rows[1][1] += 0.05
    write_trajectory_csv(str(p), cfg, header, rows)
    failures, report = check_residual_file(str(p))
    assert len(failures) == 1
    assert failures[0].startswith("invalid arrow data: ")


def _write_small_csv(path):
    cfg = ScenarioConfig("sl2c", steps=2)
    write_trajectory_csv(str(path), cfg, ["k", "x"], [[0.0, 1.0], [1.0, 2.0]])


def test_read_trajectory_csv_rejects_a_non_numeric_field(tmp_path):
    p = tmp_path / "t.csv"
    _write_small_csv(p)
    p.write_text(p.read_text().replace("1,2\n", "1,two\n"))
    with pytest.raises(DomainError):
        read_trajectory_csv(str(p))
    assert main(["check", "residual", str(p)]) == 2


# the tampered field is a free chart coordinate (B_a, theta), so the
# recomputed residuals, not a chart or composability check, have to catch it
@pytest.mark.parametrize("name,field", [("sl2c_fd.csv", 5),
                                        ("trivial_groupoid_fd.csv", 3)])
def test_finite_difference_files_recheck_with_gap_zero(tmp_path, name, field):
    # no derivatives= line: the recheck takes finite-difference derivatives,
    # as the writer did, and reproduces the stored norms exactly
    path = os.path.join(DATA, name)
    lines = open(path).read().splitlines()
    assert not any(line.startswith("# derivatives=") for line in lines)
    failures, report = check_residual_file(path)
    assert failures == [] and report.reproduce_gap == 0.0
    assert main(["check", "residual", path]) == 0
    k = next(i for i, line in enumerate(lines) if line.startswith("1,"))
    fields = lines[k].split(",")
    fields[field] = repr(float(fields[field]) + 1e-4)
    lines[k] = ",".join(fields)
    tampered = tmp_path / name
    tampered.write_text("\n".join(lines) + "\n")
    assert main(["check", "residual", str(tampered)]) == 1


def test_a_legacy_sl2c_recheck_needs_the_finite_difference_factor_lifts(
        monkeypatch):
    # negative control: with the closed SU(2) and K lifts in the records'
    # mu and nu, the committed file no longer reproduces its stored digits
    closed = scenarios.arrow_momenta
    monkeypatch.setattr(scenarios, "arrow_momenta",
                        lambda mp, L, arrows, lift=None:
                        closed(mp, L, arrows))
    failures, report = check_residual_file(os.path.join(DATA, "sl2c_fd.csv"))
    assert report.reproduce_gap > REPRODUCE_TOL
    assert failures[0].startswith("stored-vs-recomputed gap")


def _without_derivatives_line(path, config):
    """A fresh run of ``config`` written to ``path`` as a legacy file: the
    layout of today, with no derivatives= line."""
    _, header, rows = run_scenario(config)
    write_trajectory_csv(path, config, header, rows)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("# derivatives=exact\n", ""))
    return path


def test_the_circle_lift_cannot_move_a_trivial_groupoid_norm(tmp_path,
                                                              monkeypatch):
    # the Circle's lift is the 1x1 theta block at both arrows of a junction,
    # and the spring keeps theta fixed: the theta row is lift(theta) times a
    # gradient difference at the noise floor, so a finite-difference lift of
    # 1 + 1e-11 moves it far below REPRODUCE_TOL
    rng = np.random.default_rng(41)
    paths = [os.path.join(DATA, "trivial_groupoid_fd.csv")]
    for i in range(3):
        initial = rng.uniform(-1.0, 1.0, 5)
        initial[2] = rng.uniform(-3.0, 3.0)
        config = ScenarioConfig(
            "trivial_groupoid", steps=5, initial=initial,
            params=dict(k_rot=rng.uniform(0.3, 5.0)))
        paths.append(_without_derivatives_line(
            str(tmp_path / ("legacy%d.csv" % i)), config))
    read = []

    def fd_lift(self, side, g):
        read.append(float(g[0]))
        return Group.lift_matrix(self, side, g)

    for path in paths:
        closed = check_residual_file(path)[1].residual_norms
        with monkeypatch.context() as patch:
            patch.setattr(Circle, "lift_matrix", fd_lift)
            fd = check_residual_file(path)[1].residual_norms
        # the re-check read the finite-difference lift, which is not 1
        assert read and Group.lift_matrix(Circle(), "left", read[-1]) != 1.0
        read.clear()
        assert np.max(np.abs(np.subtract(closed, fd))) <= 1e-20


@pytest.mark.parametrize("scenario", ["sl2c", "trivial_groupoid"])
def test_a_fresh_file_without_its_derivatives_line_fails(tmp_path,
                                                         scenario):
    # re-checked as a legacy file, with finite differences, it cannot
    # reproduce the digits that the closed derivatives wrote
    path = _without_derivatives_line(str(tmp_path / "t.csv"),
                                     ScenarioConfig(scenario, steps=4))
    assert read_trajectory_csv(path)[0].derivatives == "fd"
    _, report = check_residual_file(path)
    assert report.reproduce_gap > REPRODUCE_TOL
    assert main(["check", "residual", path]) == 1


@pytest.mark.parametrize("scenario", ["sl2c", "trivial_groupoid"])
def test_fresh_files_record_exact_derivatives(tmp_path, scenario):
    p = str(tmp_path / "t.csv")
    assert main(["run", scenario, "--steps", "3", "--out", p]) == 0
    assert "# derivatives=exact\n" in open(p).read()
    cfg, _, _ = read_trajectory_csv(p)
    assert cfg.derivatives == "exact"
    failures, report = check_residual_file(p)
    assert failures == [] and report.reproduce_gap == 0.0


def test_read_trajectory_csv_rejects_unknown_derivatives(tmp_path):
    p = tmp_path / "t.csv"
    _write_small_csv(p)
    p.write_text(p.read_text().replace("# derivatives=exact\n",
                                       "# derivatives=symbolic\n"))
    with pytest.raises(DomainError):
        read_trajectory_csv(str(p))
    assert main(["check", "residual", str(p)]) == 2


def test_read_trajectory_csv_rejects_a_missing_scenario_line(tmp_path):
    p = tmp_path / "t.csv"
    _write_small_csv(p)
    p.write_text(p.read_text().replace("# scenario=sl2c\n", ""))
    with pytest.raises(DomainError):
        read_trajectory_csv(str(p))
    assert main(["check", "residual", str(p)]) == 2


@pytest.mark.parametrize("scenario,width", [("sl2c", 15),
                                            ("trivial_groupoid", 9)])
def test_check_residual_rejects_short_rows(tmp_path, scenario, width):
    assert len(HEADERS[scenario]) == width
    p = tmp_path / "t.csv"
    write_trajectory_csv(str(p), ScenarioConfig(scenario, steps=2), ["k", "x"],
                         [[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DomainError):
        check_residual_file(str(p))
    assert main(["check", "residual", str(p)]) == 2


# a file that is not laid out as its scenario writes it: by position, each
# of these re-checks with a clean verdict
LAYOUT_EDITS = {
    "swapped_residual_columns": ("trivial_groupoid", lambda header, rows: (
        [{"res_direct": "res_matched", "res_matched": "res_direct"}.get(c, c)
         for c in header], rows)),
    "extra_field": ("trivial_groupoid", lambda header, rows: (
        header, [row + [0.0] for row in rows])),
    "foreign_header": ("sl2c", lambda header, rows: (
        HEADERS["trivial_groupoid"], rows)),
}


@pytest.mark.parametrize("edit", sorted(LAYOUT_EDITS))
def test_check_residual_reads_the_file_by_its_layout(tmp_path, edit):
    scenario, change = LAYOUT_EDITS[edit]
    p = str(tmp_path / "t.csv")
    assert main(["run", scenario, "--steps", "3", "--out", p]) == 0
    cfg, header, rows = read_trajectory_csv(p)
    assert header == HEADERS[scenario]
    write_trajectory_csv(p, cfg, *change(header, rows))
    with pytest.raises(DomainError):
        check_residual_file(p)
    assert main(["check", "residual", p]) == 2


# cut down to its header row, or to its k=0 row, a file has no junction left
# to re-check; its steps= line says how many rows are missing
@pytest.mark.parametrize("scenario", ["sl2c", "trivial_groupoid"])
@pytest.mark.parametrize("kept", [0, 1])
def test_check_residual_rejects_a_truncated_file(tmp_path, scenario, kept):
    p = str(tmp_path / "t.csv")
    assert main(["run", scenario, "--steps", "3", "--out", p]) == 0
    cfg, header, rows = read_trajectory_csv(p)
    write_trajectory_csv(p, cfg, header, rows[:kept])
    assert "# steps=3\n" in open(p).read()
    with pytest.raises(DomainError):
        check_residual_file(p)
    assert main(["check", "residual", p]) == 2


# the bench's inputs: sl2c at 1-3x its default direction plus noise of scale
# 0.02, coupling in 0-0.5 and inertias in 0.5-2; trivial_groupoid at 0.5-2x
# its default arrow plus noise of scale 0.05, k_pos and k_rot in 0.5-2
BENCH_INPUTS = {
    "sl2c": (np.array([0.2, -0.1, 0.15, 0.1, 0.05, -0.1]), 0.02, (1.0, 3.0),
             dict({"coupling": (0.0, 0.5)}, **{n: (0.5, 2.0)
                                               for n in SL2C_PARAMS})),
    "trivial_groupoid": (np.array([0.0, 0.0, 0.3, 1.0, 0.0]), 0.05,
                         (0.5, 2.0), {"k_pos": (0.5, 2.0),
                                      "k_rot": (0.5, 2.0)}),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", sorted(BENCH_INPUTS))
def test_check_residual_rebuilds_the_written_rows_exactly(tmp_path, scenario,
                                                          seed):
    base, noise, (lo, hi), ranges = BENCH_INPUTS[scenario]
    rng = np.random.default_rng(seed)
    config = ScenarioConfig(
        scenario, steps=int(rng.integers(2, 5)),
        initial=rng.uniform(lo, hi) * base
        + noise * rng.standard_normal(base.size),
        params={k: rng.uniform(a, b) for k, (a, b) in ranges.items()})
    report, header, rows = run_scenario(config)
    assert report.failures(config.tol) == []
    p = str(tmp_path / "t.csv")
    write_trajectory_csv(p, config, header, rows)
    failures, recheck = check_residual_file(p)
    assert failures == [] and recheck.reproduce_gap == 0.0
    assert recheck.residual_norms == report.residual_norms


# the last of the re-derived columns [k, *arrow, *record, residual]
RESIDUAL_COLUMN = {"sl2c": "res_norm", "trivial_groupoid": "res_direct"}
# the arrow of a row is row[1:1 + arrow_dim]
ARROW_DIM = {"sl2c": Su2K().arrow_dim,
             "trivial_groupoid":
                 default_trivial_decomposition().trivial.arrow_dim}


@pytest.mark.parametrize("scenario", sorted(RESIDUAL_COLUMN))
def test_check_residual_fails_every_tampered_rederived_cell(tmp_path,
                                                           scenario):
    out = str(tmp_path / "fresh.csv")
    assert main(["run", scenario, "--steps", "4", "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    # k, the record entries and the residual: all but the arrow
    cells = [0] + list(range(1 + ARROW_DIM[scenario],
                             header.index(RESIDUAL_COLUMN[scenario]) + 1))
    assert len(cells) == {"sl2c": 8, "trivial_groupoid": 2}[scenario]
    tampered = str(tmp_path / "tampered.csv")
    for row in (1, len(rows) - 1):
        for col in cells:
            edited = [list(r) for r in rows]
            edited[row][col] += 1e-6
            write_trajectory_csv(tampered, cfg, header, edited)
            assert main(["check", "residual", tampered]) == 1, (row,
                                                                header[col])


def test_run_scenario_dispatch():
    report, _, _ = run_scenario(ScenarioConfig("sl2c", steps=3))
    assert report.scenario == "sl2c"
    report, _, _ = run_scenario(ScenarioConfig("trivial_groupoid", steps=3))
    assert report.scenario == "trivial_groupoid"


def test_axiom_suites_pass():
    ok, report = run_axiom_suites(seed=1, n_samples=50)
    assert ok
    assert max(v for k, v in report.items()
               if not k.endswith("bracket_jacobi")
               and ".closed_vs_generic." not in k) < 1e-9
    # Su2K's closed induced actions, against finite differences
    assert sorted(k for k in report if ".closed_vs_generic." in k) == [
        "su2k.closed_vs_generic." + name for name in sorted(CLOSED_ACTIONS)]
    assert max(v for k, v in report.items()
               if ".closed_vs_generic." in k) <= 1e-7


# -- CLI --------------------------------------------------------------------

def test_cli_run_and_check_roundtrip(tmp_path):
    out = str(tmp_path / "run.csv")
    assert main(["run", "sl2c", "--steps", "4", "--out", out]) == 0
    assert main(["check", "residual", out]) == 0


def test_the_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_repeated_main_calls_share_the_parser_and_nothing_else(tmp_path,
                                                               capsys):
    out = str(tmp_path / "f.csv")
    usage_error = ["run", "nope"]
    run = ["run", "sl2c", "--steps", "3", "--out", out]
    seen = {}
    for argv, code in ((usage_error, 2), (["--help"], 0), (run, 0),
                       (["check", "residual", out], 0), (usage_error, 2),
                       (run, 0)):
        assert main(argv) == code, argv
        printed = capsys.readouterr()
        text = (printed.out, printed.err)
        assert any(text), argv
        assert seen.setdefault(tuple(argv), text) == text, argv


def test_check_residual_reports_an_oracle_only_where_there_is_one(
        tmp_path, capsys):
    # sl2c files have no independent variational oracle, so none is printed;
    # the recomputed residuals still decide, and catch a tampered arrow
    for scenario, has_oracle in (("sl2c", False), ("trivial_groupoid", True)):
        out = str(tmp_path / (scenario + ".csv"))
        assert main(["run", scenario, "--steps", "4", "--out", out]) == 0
        capsys.readouterr()
        assert main(["check", "residual", out]) == 0
        text = capsys.readouterr().out
        assert ("variational oracle max: " in text) == has_oracle
        assert (check_residual_file(out)[1].oracle_max is None) != has_oracle
    cfg, header, rows = read_trajectory_csv(str(tmp_path / "sl2c.csv"))
    rows[2][5] += 1e-4  # B_a, a free chart coordinate
    tampered = str(tmp_path / "tampered.csv")
    write_trajectory_csv(tampered, cfg, header, rows)
    assert main(["check", "residual", tampered]) == 1


def test_check_residual_ignores_the_old_formula_gap_column(tmp_path):
    # sl2c files once ended each row in a finite-difference cross-check's
    # gap, which nothing re-derives
    out = str(tmp_path / "sl2c.csv")
    assert main(["run", "sl2c", "--steps", "4", "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    assert "formula_gap" not in header
    old = str(tmp_path / "old.csv")
    write_trajectory_csv(old, cfg, header + ["formula_gap"],
                         [row + [9.0 * k] for k, row in enumerate(rows)])
    failures, report = check_residual_file(old)
    assert failures == [] and report.reproduce_gap == 0.0
    assert main(["check", "residual", old]) == 0
    # the older layout is sl2c's only
    trivial = str(tmp_path / "trivial.csv")
    assert main(["run", "trivial_groupoid", "--steps", "3", "--out",
                 trivial]) == 0
    cfg, header, rows = read_trajectory_csv(trivial)
    write_trajectory_csv(trivial, cfg, header + ["formula_gap"],
                         [row + [0.0] for row in rows])
    assert main(["check", "residual", trivial]) == 2


def test_check_residual_rederives_the_sl2c_momenta(tmp_path, capsys):
    # the momentum columns are recomputed from the arrow of their row
    out = str(tmp_path / "sl2c.csv")
    assert main(["run", "sl2c", "--steps", "4", "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    rows[2][header.index("Phi_1")] = 77.0
    tampered = str(tmp_path / "tampered.csv")
    write_trajectory_csv(tampered, cfg, header, rows)
    capsys.readouterr()
    assert main(["check", "residual", tampered]) == 1
    assert "FAIL: stored-vs-recomputed gap" in capsys.readouterr().err


def test_sl2c_momenta_take_one_gradient_per_arrow(tmp_path, monkeypatch):
    # outside the Newton solves, run and check residual differentiate L once
    # per arrow; the closed and the generic momentum forms read the records
    import matchdyn.scenarios as scenarios

    gradients, forms, solving = [], [], []
    march, residuals = scenarios.march, scenarios.momentum_residuals
    gradient = DiscreteLagrangian.gradient

    def counted_gradient(self, x):
        if not solving:
            gradients.append(x)
        return gradient(self, x)

    def solve(*args, **kwargs):
        solving.append(True)
        try:
            return march(*args, **kwargs)
        finally:
            solving.pop()

    def counted_forms(*args, **kwargs):
        before = len(gradients)
        out = residuals(*args, **kwargs)
        forms.append(len(gradients) - before)
        return out

    monkeypatch.setattr(DiscreteLagrangian, "gradient", counted_gradient)
    monkeypatch.setattr(scenarios, "march", solve)
    monkeypatch.setattr(scenarios, "momentum_residuals", counted_forms)
    out = str(tmp_path / "sl2c.csv")
    assert main(["run", "sl2c", "--steps", "10", "--out", out]) == 0
    # the closed form only
    assert len(gradients) == 10 and forms == [0]
    for path, n_arrows in ((out, 10),
                           (os.path.join(DATA, "sl2c_fd.csv"), 4)):
        gradients.clear()
        forms.clear()
        assert main(["check", "residual", path]) == 0
        assert len(gradients) == n_arrows and forms == [0]


def test_trivial_groupoid_recheck_takes_one_gradient_per_arrow(
        tmp_path, monkeypatch):
    # each interior arrow's gradient serves both of its junctions
    gradients = []
    gradient = DiscreteLagrangian.gradient

    def counted_gradient(self, x):
        gradients.append(x)
        return gradient(self, x)

    out = str(tmp_path / "trivial.csv")
    assert main(["run", "trivial_groupoid", "--steps", "10", "--out",
                 out]) == 0
    monkeypatch.setattr(DiscreteLagrangian, "gradient", counted_gradient)
    for path, n_arrows in ((out, 10),
                           (os.path.join(DATA, "trivial_groupoid_fd.csv"),
                            4)):
        gradients.clear()
        assert main(["check", "residual", path]) == 0
        assert len(gradients) == n_arrows


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("scenario", sorted(ARROW_DIM))
def test_check_residual_rejects_a_non_finite_arrow(tmp_path, scenario, value):
    out = str(tmp_path / "fresh.csv")
    assert main(["run", scenario, "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    for col in range(1, 1 + ARROW_DIM[scenario]):
        edited = [list(row) for row in rows]
        edited[len(rows) // 2][col] = value
        tampered = str(tmp_path / "tampered.csv")
        write_trajectory_csv(tampered, cfg, header, edited)
        assert main(["check", "residual", tampered]) in (1, 2), header[col]


@pytest.mark.parametrize("scenario, column", [("sl2c", "res_norm"),
                                              ("trivial_groupoid",
                                               "res_direct")])
def test_check_residual_fails_a_nan_stored_residual(tmp_path, scenario,
                                                     column):
    out = str(tmp_path / "fresh.csv")
    assert main(["run", scenario, "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    rows[len(rows) // 2][header.index(column)] = np.nan
    tampered = str(tmp_path / "tampered.csv")
    write_trajectory_csv(tampered, cfg, header, rows)
    assert main(["check", "residual", tampered]) == 1


def test_check_residual_fails_an_overflowing_trivial_groupoid_file(
        tmp_path, capsys):
    # m and n at -+1e200 on alternate rows stay glued, and the spring's
    # (n - m)^2 overflows: a typed failure, not a RuntimeWarning, which
    # this suite's filter turns into an error
    out = str(tmp_path / "fresh.csv")
    assert main(["run", "trivial_groupoid", "--steps", "4", "--out",
                 out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    for k, row in enumerate(rows):
        sign = -1.0 if k % 2 == 0 else 1.0
        row[header.index("m1")] = sign * 1e200
        row[header.index("n1")] = -sign * 1e200
    tampered = str(tmp_path / "tampered.csv")
    write_trajectory_csv(tampered, cfg, header, rows)
    capsys.readouterr()
    assert main(["check", "residual", tampered]) == 1
    assert "FAIL: invalid arrow data: trivial_groupoid re-check failed: " \
           "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("row, column", [(1, "k"), (-1, None)],
                         ids=["row_number", "last_residual"])
@pytest.mark.parametrize("scenario, residual", [("sl2c", "res_norm"),
                                                ("trivial_groupoid",
                                                 "res_direct")])
def test_check_residual_rederives_the_row_numbers_and_padding(
        tmp_path, scenario, residual, row, column):
    # the writer stores k = row index, and 0.0 as the last row's residual
    out = str(tmp_path / "fresh.csv")
    assert main(["run", scenario, "--steps", "4", "--out", out]) == 0
    cfg, header, rows = read_trajectory_csv(out)
    rows[row][header.index(column or residual)] = 5.0
    tampered = str(tmp_path / "tampered.csv")
    write_trajectory_csv(tampered, cfg, header, rows)
    assert main(["check", "residual", tampered]) == 1


def test_failures_keep_a_nan_that_is_not_first():
    report = RunReport("sl2c", [1e-12, np.nan, 1e-12], reproduce_gap=0.0)
    assert report.failures(1e-10) == [
        "max residual norm nan above 1e-09",
        "max residual norm, no oracle nan above 1e-06"]


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


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--samples", "0"], ["--samples", "-3"],
    ["--tol", "nan"], ["--tol", "-1"], ["--tol", "0"], ["--tol", "inf"]])
def test_cli_check_axioms_rejects_flags_that_check_nothing(flags, capsys):
    assert main(["check", "axioms"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: check axioms needs")


def test_cli_export(tmp_path, capsys):
    rep = str(tmp_path / "report.json")
    assert main(["export", "sl2c", "--steps", "3", "--report", rep]) == 0
    data = json.loads(open(rep).read())
    assert data["scenario"] == "sl2c"
    assert len(data["residual_norms"]) == 2


@pytest.mark.parametrize("command", ["run", "export", "check residual"])
def test_run_export_and_check_give_one_verdict(tmp_path, capsys, command):
    # at --tol 1e-3 every sl2c residual is within tol but not within the
    # 1e-6 bound that stands in for the oracle sl2c lacks
    for tol, code in ((["--tol", "1e-3"], 1), ([], 0)):
        out = str(tmp_path / "sl2c.csv")
        argv = ["sl2c", "--out", out] + tol
        if command == "check residual":
            main(["run"] + argv)
            argv = ["check", "residual", out]
        else:
            argv = [command] + argv
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            # the quantity, its value and the bound it broke
            found = re.fullmatch(r"FAIL: max residual norm, no oracle "
                                 r"(\S+) above 1e-06\n", err)
            assert found and 1e-6 < float(found.group(1)) <= 1e-3
        else:
            assert "FAIL:" not in err


def test_cli_usage_errors(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2
    assert main([]) == 2
    assert main(["check"]) == 2
    assert main(["run", "sl2c", "--steps", "1"]) == 2
    assert main(["run", "sl2c", "--tol", "-1"]) == 2
    assert main(["run", "sl2c", "--seed", "3", "--out",
                 str(tmp_path / "s.csv")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nid = sl2c\nsteps = nope\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["check", "residual", str(tmp_path / "missing.csv")]) == 2


# an unknown Lagrangian or parameter: the message lists the known ones
KNOWN_SL2C = ("sl2c knows the Lagrangian 'quadratic' with the parameters "
              "coupling, ig1, ig2, ig3, ih1, ih2, ih3, not ")
KNOWN_SPRING = ("trivial_groupoid knows the Lagrangian 'spring' with the "
                "parameters k_pos, k_rot, not ")


@pytest.mark.parametrize("command,text,message", [
    ("run", "[lagrangian]\nname = spring\n", ""),
    ("run", "[scenario]\nid = sl2c\n\n[lagrangian]\nname = spring\n",
     KNOWN_SL2C + "'spring' with []"),
    ("run", "[scenario]\nid = trivial_groupoid\n\n[lagrangian]\n"
            "name = quadratic\n", KNOWN_SPRING + "'quadratic' with []"),
    ("run", "[scenario]\nid = sl2c\n\n[initial]\ncoords = 0.1 0 0 0 0.05\n",
     "sl2c initial data needs 6 algebra coords (su(2) then K), got 5"),
    ("check residual", "# scenario=sl2c\n# steps=2\n", ""),
    ("run", "[scenario]\nid = trivial_groupoid\n\n[lagrangian]\n"
            "k_pso = 7\n", KNOWN_SPRING + "'spring' with ['k_pso']"),
    ("run", "[scenario]\nid = sl2c\n\n[lagrangian]\nig4 = 1\n",
     KNOWN_SL2C + "'quadratic' with ['ig4']"),
    ("check residual", "# scenario=sl2c\n# steps=2\n# param.ig4=1\n"
                       "k,x\n0,1\n1,2\n",
     KNOWN_SL2C + "'quadratic' with ['ig4']"),
    ("check residual", "# scenario=trivial_groupoid\n# steps=2\n"
                       "# lagrangian=quadratic\nk,x\n0,1\n1,2\n",
     KNOWN_SPRING + "'quadratic' with []"),
], ids=["no_scenario_section", "sl2c_spring", "trivial_groupoid_quadratic",
        "sl2c_five_coords", "no_header_row", "trivial_groupoid_k_pso",
        "sl2c_ig4", "header_ig4", "header_quadratic"])
def test_config_and_file_errors_exit_2(tmp_path, capsys, command, text,
                                       message):
    p = tmp_path / "input"
    p.write_text(text)
    if command == "run":
        argv = ["run", "--config", str(p), "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["check", "residual", str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["run", "check residual"])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys,
                                                   command):
    data = np.random.default_rng(0).bytes(300)
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    p = tmp_path / "input"
    p.write_bytes(data)
    if command == "run":
        argv = ["run", "--config", str(p), "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["check", "residual", str(p)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(p) in err


@pytest.mark.parametrize("scenario, initial, code, message", [
    ("sl2c", "0.9 0.1 0.1 0.1 0.1 0.1", 1,
     "FAIL: stored-vs-recomputed gap"),
    ("trivial_groupoid", "5 5 5 5 5", 1, "FAIL: stored-vs-recomputed gap"),
    ("sl2c", "0.2 -0.1 0.15", 2,
     "error: sl2c initial data needs 6 algebra coords (su(2) then K), "
     "got 3"),
    ("trivial_groupoid", "0 0 0.3 1", 2,
     "error: trivial_groupoid initial data needs 5 arrow coords "
     "(m, theta, n), got 4"),
], ids=["sl2c_other", "trivial_groupoid_other", "sl2c_three_coords",
        "trivial_groupoid_four_coords"])
def test_check_residual_rederives_the_first_arrow_from_the_header(
        tmp_path, capsys, scenario, initial, code, message):
    out = tmp_path / "fresh.csv"
    assert main(["run", scenario, "--steps", "4", "--out", str(out)]) == 0
    out.write_text("# initial=%s\n" % initial + out.read_text())
    capsys.readouterr()
    assert main(["check", "residual", str(out)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "export"])
def test_a_scenario_that_contradicts_the_config_is_a_usage_error(
        tmp_path, capsys, command):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[scenario]\nid = trivial_groupoid\nsteps = 3\n")
    out = tmp_path / "t.csv"
    argv = [command, "sl2c", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: scenario sl2c contradicts --config %s (trivial_groupoid)\n"
        % cfg)
    argv[1] = "trivial_groupoid"
    assert main(argv) == 0 and out.exists()


def test_cli_sl2c_solver_failure_names_the_step(tmp_path, capsys):
    # the default initial direction x10 has no solution at arrow 7
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[scenario]\nid = sl2c\nsteps = 10\n\n[initial]\n"
                   "coords = 2.0 -1.0 1.5 1.0 0.5 -1.0\n")
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "run.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 7: line search failed after 30 "
                          "halvings (residual 6.588e+02, condition estimate ")


README = os.path.join(os.path.dirname(DATA), os.pardir, "README.md")


@pytest.mark.parametrize("ini,flags,line", [
    (None, ["sl2c", "--tol", "1e-3"],
     "FAIL: max residual norm, no oracle 7.636e-04 above 1e-06"),
    ("[scenario]\nid = sl2c\nsteps = 10\n\n[initial]\n"
     "coords = 2.0 -1.0 1.5 1.0 0.5 -1.0\n", [],
     "error: step 7: line search failed after 30 halvings (residual "
     "6.588e+02, condition estimate 1.088e+06)"),
], ids=["fail_verdict", "solver_failure"])
def test_readme_examples_print_what_the_readme_says(tmp_path, capsys, ini,
                                                    flags, line):
    # the README quotes these stderr lines verbatim
    argv = ["run"] + flags + ["--out", str(tmp_path / "run.csv")]
    if ini:
        (tmp_path / "cfg.ini").write_text(ini)
        argv += ["--config", str(tmp_path / "cfg.ini")]
    assert main(argv) == 1
    assert capsys.readouterr().err == line + "\n"
    with open(README) as fh:
        assert "`%s`" % line in " ".join(fh.read().split())


@settings(max_examples=10, deadline=None)
@given(amplitude=st.floats(0.0, 40.0),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)
       .filter(lambda v: np.linalg.norm(v) > 0.1))
# K's c = expm1(38) has an inverse that rounds onto the chart edge c = -1,
# and c = expm1(-38) rounds onto it at once
@example(amplitude=38.0, direction=[0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
@example(amplitude=38.0, direction=[0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
def test_cli_sl2c_large_initial_data_is_a_solver_failure(
        tmp_path_factory, amplitude, direction):
    # a Newton trial point may leave the K chart or overflow; that is a
    # solver failure (exit 1), never a usage error (exit 2)
    d = tmp_path_factory.mktemp("sl2c")
    w0 = amplitude * np.asarray(direction) / np.linalg.norm(direction)
    cfg = d / "cfg.ini"
    cfg.write_text("[scenario]\nid = sl2c\nsteps = 2\n\n[initial]\n"
                   "coords = %s\n" % " ".join(repr(float(v)) for v in w0))
    out = str(d / "run.csv")
    code = main(["run", "--config", str(cfg), "--out", out])
    assert code in (0, 1)
    if code == 0:
        assert main(["check", "residual", out]) == 0
