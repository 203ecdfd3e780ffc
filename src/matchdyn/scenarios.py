"""Built-in scenarios: the rotating-frame trivial groupoid on the plane and
the SL(2, C) matched-pair group, plus config parsing and trajectory I/O.

Config files are INI; trajectory files are CSV whose leading '#' comment
lines embed the full config, so a trajectory can be re-verified without the
original config file.  Reals are serialized with 17 significant digits to
keep the round trip bit-stable.
"""
from __future__ import annotations

import configparser
import json
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DiscreteLagrangian,
    Trajectory,
    del_residual,
    del_residual_matched_group,
    del_step,
    del_step_matched_group,
    matched_group_momenta,
    variational_oracle,
)
from .errors import DomainError, FormulaMismatch, MatchdynError
from .groupoids import default_trivial_decomposition
from .matched_group import Su2K
from .numerics import Tolerances

FMT = "%.17g"
FORMULA_TOL = 1e-7
REPRODUCE_TOL = 1e-12

SCENARIOS = ("trivial_groupoid", "sl2c")


class ScenarioConfig:
    """Flat scenario description: which system, which built-in Lagrangian
    with which parameters, initial data, step count, tolerance."""

    def __init__(self, scenario, steps=10, tol=1e-10, out=None,
                 lagrangian=None, params=None, initial=None):
        if scenario not in SCENARIOS:
            raise DomainError("unknown scenario %r (expected one of %s)"
                              % (scenario, ", ".join(SCENARIOS)))
        if steps < 2:
            raise DomainError("steps must be >= 2, got %d" % steps)
        if tol <= 0:
            raise DomainError("tol must be positive")
        self.scenario = scenario
        self.steps = int(steps)
        self.tol = float(tol)
        self.out = out
        self.lagrangian = lagrangian or ("spring" if scenario ==
                                         "trivial_groupoid" else "quadratic")
        self.params = dict(params or {})
        self.initial = None if initial is None else np.asarray(initial,
                                                               dtype=float)

    @classmethod
    def from_ini(cls, path):
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise DomainError("config file %s not found or unreadable" % path)
        if "scenario" not in cp:
            raise DomainError("config %s: missing [scenario] section" % path)
        sec = cp["scenario"]
        try:
            scenario = sec.get("id")
            steps = sec.getint("steps", 10)
            tol = sec.getfloat("tol", 1e-10)
            out = sec.get("out", None)
        except ValueError as exc:
            raise DomainError("config %s: bad [scenario] field: %s"
                              % (path, exc))
        lagrangian = None
        params = {}
        if "lagrangian" in cp:
            lagrangian = cp["lagrangian"].get("name", None)
            for key, val in cp["lagrangian"].items():
                if key == "name":
                    continue
                try:
                    params[key] = float(val)
                except ValueError:
                    raise DomainError("config %s: parameter %s=%r is not a "
                                      "number" % (path, key, val))
        initial = None
        if "initial" in cp and cp["initial"].get("coords"):
            try:
                initial = [float(t)
                           for t in cp["initial"]["coords"].split()]
            except ValueError:
                raise DomainError("config %s: [initial] coords must be "
                                  "whitespace-separated numbers" % path)
        return cls(scenario, steps=steps, tol=tol, out=out,
                   lagrangian=lagrangian, params=params, initial=initial)

    def to_comment_lines(self):
        lines = [
            "scenario=%s" % self.scenario,
            "steps=%d" % self.steps,
            "tol=" + FMT % self.tol,
            "lagrangian=%s" % self.lagrangian,
        ]
        for key in sorted(self.params):
            lines.append("param.%s=%s" % (key, FMT % self.params[key]))
        if self.initial is not None:
            lines.append("initial=" + " ".join(FMT % v for v in self.initial))
        return lines

    @classmethod
    def from_comment_lines(cls, lines):
        kv = {}
        for line in lines:
            if "=" in line:
                key, _, val = line.partition("=")
                kv[key.strip()] = val.strip()
        params = {k[len("param."):]: float(v) for k, v in kv.items()
                  if k.startswith("param.")}
        initial = None
        if "initial" in kv:
            initial = [float(t) for t in kv["initial"].split()]
        return cls(kv["scenario"], steps=int(kv.get("steps", 10)),
                   tol=float(kv.get("tol", 1e-10)),
                   lagrangian=kv.get("lagrangian"), params=params,
                   initial=initial)


@dataclass
class RunReport:
    """Numbers recomputed from the emitted trajectory, plus wall-clock."""

    scenario: str
    residual_norms: list
    oracle_max: float | None = None
    momentum_defect: float | None = None
    correspondence_gap: float | None = None
    formula_gap: float | None = None
    wall_clock: float | None = None

    def as_dict(self):
        d = {"scenario": self.scenario,
             "residual_norms": [float(r) for r in self.residual_norms]}
        for key in ("oracle_max", "momentum_defect", "correspondence_gap",
                    "formula_gap", "wall_clock"):
            val = getattr(self, key)
            if val is not None:
                d[key] = float(val)
        return d

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# built-in Lagrangians
# ---------------------------------------------------------------------------

def trivial_groupoid_lagrangian(dec, config: ScenarioConfig):
    """L(m, g, n) = k_pos/2 |n - m|^2 + k_rot/2 theta(g)^2 on M x G x M."""
    if config.lagrangian != "spring":
        raise DomainError("trivial_groupoid knows the Lagrangian 'spring', "
                          "not %r" % config.lagrangian)
    k_pos = config.params.get("k_pos", 1.0)
    k_rot = config.params.get("k_rot", 1.0)

    def evaluate(x):
        m, g, n = dec.trivial.split(x)
        return (0.5 * k_pos * float(np.sum((n - m) ** 2))
                + 0.5 * k_rot * float(g[0] ** 2))

    return DiscreteLagrangian(evaluate, name="spring")


def sl2c_lagrangian(mp: Su2K, config: ScenarioConfig):
    """Quadratic form in the logarithmic coordinates of SU(2) x K with a
    bilinear coupling between the two factors."""
    if config.lagrangian != "quadratic":
        raise DomainError("sl2c knows the Lagrangian 'quadratic', not %r"
                          % config.lagrangian)
    ig = np.array([config.params.get("ig%d" % i, 1.0) for i in (1, 2, 3)])
    ih = np.array([config.params.get("ih%d" % i, 1.0) for i in (1, 2, 3)])
    coupling = config.params.get("coupling", 0.0)

    def evaluate(u):
        g, h = mp.split(u)
        x = mp.G.log(g)
        y = mp.H.log(h)
        return (0.5 * float(x @ (ig * x)) + 0.5 * float(y @ (ih * y))
                + coupling * float(x @ y))

    return DiscreteLagrangian(evaluate, name="quadratic")


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def run_trivial_groupoid(config: ScenarioConfig):
    """Solve the matched-pair presentation of the plane-with-rotations
    system and cross-check it against the direct solve on M x G x M.

    Returns (report, header, rows); each row holds the direct arrow
    (m, theta, n), the junction residual norms of both presentations, and
    the gap between the matched trajectory and the image of the direct one.
    """
    t0 = time.perf_counter()
    dec = default_trivial_decomposition()
    L = trivial_groupoid_lagrangian(dec, config)
    Lm = DiscreteLagrangian(lambda u: L(dec.phi_inv(u)),
                            name=L.name + "_matched")
    x0 = config.initial
    if x0 is None:
        x0 = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    if x0.size != dec.trivial.arrow_dim:
        raise DomainError("trivial_groupoid initial arrow needs %d coords "
                          "(m, theta, n), got %d"
                          % (dec.trivial.arrow_dim, x0.size))
    tols = Tolerances(newton_tol=config.tol)

    direct = [dec.trivial.check(x0)]
    matched = [dec.phi(x0)]
    res_direct = []
    res_matched = []
    phi_gap = 0.0
    for _ in range(config.steps - 1):
        nxt = del_step(dec.trivial, L, direct[-1], tol=tols)
        res_direct.append(float(np.linalg.norm(
            del_residual(dec.trivial, L, direct[-1], nxt), np.inf)))
        direct.append(nxt)
        nxtm = del_step(dec.matched, Lm, matched[-1], tol=tols)
        res_matched.append(float(np.linalg.norm(
            del_residual(dec.matched, Lm, matched[-1], nxtm), np.inf)))
        matched.append(nxtm)
        phi_gap = max(phi_gap, float(np.max(np.abs(nxtm - dec.phi(nxt)))))

    traj = Trajectory(dec.trivial, direct, residual_norms=res_direct)
    oracle = variational_oracle(dec.trivial, L, traj)
    oracle_m = variational_oracle(
        dec.matched, Lm, Trajectory(dec.matched, matched))

    header = ["k", "m1", "m2", "theta", "n1", "n2", "res_direct",
              "res_matched", "phi_gap"]
    rows = []
    for k, x in enumerate(direct):
        rd = res_direct[k] if k < len(res_direct) else 0.0
        rm = res_matched[k] if k < len(res_matched) else 0.0
        rows.append([float(k)] + [float(v) for v in x] + [rd, rm, phi_gap])

    report = RunReport("trivial_groupoid", res_direct,
                       oracle_max=max(oracle, oracle_m),
                       correspondence_gap=max(
                           phi_gap,
                           max(abs(a - b) for a, b in
                               zip(res_direct, res_matched))),
                       wall_clock=time.perf_counter() - t0)
    return report, header, rows


def run_sl2c(config: ScenarioConfig):
    """Solve the SL(2, C) matched-group recursion with the closed-form
    residual and verify the finite-difference assembly agrees at every
    accepted step; mismatches beyond FORMULA_TOL abort with
    FormulaMismatch."""
    t0 = time.perf_counter()
    mp = Su2K()
    L = sl2c_lagrangian(mp, config)
    w0 = config.initial
    if w0 is None:
        w0 = np.array([0.2, -0.1, 0.15, 0.1, 0.05, -0.1])
    if w0.size != mp.dim:
        raise DomainError("sl2c initial data needs %d algebra coords "
                          "(su(2) then K), got %d" % (mp.dim, w0.size))
    tols = Tolerances(newton_tol=config.tol)

    arrows = [mp.exp(np.asarray(w0, dtype=float))]
    res_norms = []
    formula_gap = 0.0
    for _ in range(config.steps - 1):
        nxt = del_step_matched_group(mp, L, arrows[-1], form="full", tol=tols)
        r_closed = del_residual_matched_group(mp, L, arrows[-1], nxt,
                                              form="full")
        r_generic = del_residual_matched_group(mp, L, arrows[-1], nxt,
                                               form="generic")
        gap = float(np.max(np.abs(r_closed - r_generic)))
        if gap > FORMULA_TOL:
            raise FormulaMismatch(
                "closed-form and finite-difference residuals disagree by "
                "%.3e at step %d" % (gap, len(arrows)))
        formula_gap = max(formula_gap, gap)
        res_norms.append(float(np.linalg.norm(r_closed, np.inf)))
        arrows.append(nxt)

    header = (["k", "A_w", "A_x", "A_y", "A_z", "B_a", "B_b", "B_c"]
              + ["Phi_%d" % i for i in (1, 2, 3)]
              + ["Psi_%d" % i for i in (1, 2, 3)]
              + ["res_norm", "formula_gap"])
    rows = []
    for k, u in enumerate(arrows):
        mu, nu = matched_group_momenta(mp, L, u)
        rn = res_norms[k] if k < len(res_norms) else 0.0
        rows.append([float(k)] + [float(v) for v in u]
                    + [float(v) for v in mu] + [float(v) for v in nu]
                    + [rn, formula_gap])

    report = RunReport("sl2c", res_norms, formula_gap=formula_gap,
                       wall_clock=time.perf_counter() - t0)
    return report, header, rows


def run_scenario(config: ScenarioConfig):
    if config.scenario == "trivial_groupoid":
        return run_trivial_groupoid(config)
    return run_sl2c(config)


# ---------------------------------------------------------------------------
# trajectory files
# ---------------------------------------------------------------------------

def write_trajectory_csv(path, config: ScenarioConfig, header, rows):
    with open(path, "w") as fh:
        for line in config.to_comment_lines():
            fh.write("# %s\n" % line)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")


def read_trajectory_csv(path):
    comments = []
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line.lstrip("# "))
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(t) for t in line.split(",")])
    if header is None:
        raise DomainError("trajectory file %s has no header row" % path)
    return ScenarioConfig.from_comment_lines(comments), header, rows


def check_residual_file(path):
    """Re-read an emitted trajectory, recompute every residual norm from the
    arrows alone, and compare against the stored values.  Returns
    (ok, report)."""
    config, header, rows = read_trajectory_csv(path)
    try:
        return _recheck_rows(config, rows)
    except MatchdynError:
        # invalid arrow data (e.g. a corrupted quaternion) fails the check
        return False, RunReport(config.scenario, [])


def _recheck_rows(config, rows):
    if config.scenario == "trivial_groupoid":
        dec = default_trivial_decomposition()
        L = trivial_groupoid_lagrangian(dec, config)
        arrows = [np.array(row[1:6]) for row in rows]
        stored = [row[6] for row in rows[:-1]]
        recomputed = [float(np.linalg.norm(
            del_residual(dec.trivial, L, a, b), np.inf))
            for a, b in zip(arrows, arrows[1:])]
        oracle = variational_oracle(dec.trivial, L,
                                    Trajectory(dec.trivial, arrows))
    else:
        mp = Su2K()
        L = sl2c_lagrangian(mp, config)
        arrows = [np.array(row[1:8]) for row in rows]
        stored = [row[14] for row in rows[:-1]]
        recomputed = [float(np.linalg.norm(
            del_residual_matched_group(mp, L, a, b, form="full"), np.inf))
            for a, b in zip(arrows, arrows[1:])]
        oracle = max(recomputed) if recomputed else 0.0
    repro_gap = max((abs(a - b) for a, b in zip(stored, recomputed)),
                    default=0.0)
    solved = max(recomputed, default=0.0) <= max(config.tol, 1e-9)
    ok = repro_gap <= REPRODUCE_TOL and solved and oracle <= 1e-6
    report = RunReport(config.scenario, recomputed, oracle_max=oracle,
                       correspondence_gap=repro_gap)
    return ok, report


def run_axiom_suites(seed=0, n_samples=200, tol=1e-9):
    """Matched-group and groupoid axiom suites; returns (ok, merged report)."""
    merged = {}
    loose = {}
    mp = Su2K()
    rng = np.random.default_rng(seed)
    for key, val in mp.axiom_report(rng, n_samples=n_samples).items():
        # the Jacobi check runs through finite-difference brackets and
        # cannot reach the tolerance of the exact action laws
        (loose if key == "bracket_jacobi" else merged)["su2k." + key] = val
    dec = default_trivial_decomposition()
    for key, val in dec.trivial.axiom_report(rng,
                                             n_samples=n_samples).items():
        merged["trivial." + key] = val
    for key, val in dec.matched.matched_axiom_report(
            rng, n_samples=n_samples).items():
        merged["matched." + key] = val
    ok = (max(merged.values()) <= tol
          and max(loose.values(), default=0.0) <= 1e-4)
    merged.update(loose)
    return ok, merged
