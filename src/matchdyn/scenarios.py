"""Built-in scenarios, one record each in SCENARIOS: the rotating-frame
trivial groupoid on the plane and the SL(2, C) matched-pair group; plus
config parsing and trajectory I/O.  A command knows of a scenario only what
its record holds, and branches on no scenario's name.

Config files are INI; trajectory files are CSV whose leading '#' comment
lines embed the full config, so a trajectory can be re-verified without the
original config file, and whose rows lead with the columns that the
re-check rebuilds, [k, *arrow, *record, residual], by one row builder.
Reals are serialized with 17 significant digits to keep the round trip
bit-stable.  The comment lines also record how the writer took derivatives
(``derivatives=exact``: closed gradients and lift matrices); a file without
that line was written with finite differences, and is re-verified with them
where its stored digits depend on them, and only there: L's gradient, and
for sl2c the factor lifts of the momenta (``Group.lift_matrix``).
"""
from __future__ import annotations

import configparser
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import (
    ORACLE_TOL,
    DiscreteLagrangian,
    Trajectory,
    arrow_momenta,
    del_residuals,
    march,
    momentum_residuals,
    solve_trajectory,
    solver_failure,
    variational_oracle,
)
from .errors import DomainError, MatchdynError
from .groupoids import default_trivial_decomposition, record_deviation
from .groups import Group
from .matched_group import Su2K
from .numerics import DEFAULT_TOL, transposed_matvec

FMT = "%.17g"
REPRODUCE_TOL = 1e-12

# how the derivatives in a trajectory file were taken: this writer takes the
# first; a file without the derivatives= line took the second
DERIVATIVES = ("exact", "fd")

# the blocks of Su2K's closed induced-action pairs, (A_g, D_h) on the
# G-fiber and (D_g, A_h) on the H-fiber, by the names check axioms gives them
CLOSED_ACTIONS = ("act_on_fiber_g", "dagger_on_h", "dagger_on_g",
                  "act_on_fiber_h")


def _converted(name, value, convert=float):
    """convert(value) if it is finite, or else a DomainError that names the
    config field."""
    try:
        out = convert(value)
        if np.all(np.isfinite(out)):
            return out
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError("%s %r: %s" % (name, value, exc))
    raise DomainError("%s %r is not finite" % (name, value))


@dataclass(eq=False)
class ScenarioConfig:
    """Flat scenario description: which system, which built-in Lagrangian
    with which parameters, initial data, step count, tolerance.  Validated on
    construction, ``dataclasses.replace`` included: a whole number of steps,
    a positive tolerance, the Lagrangian (None for its own, not "") and
    parameters that its SCENARIOS record names, finite real values and as
    many initial coordinates as the record has, so a bad value is a config
    error that names its field, not a solver failure.  The INI and
    trajectory header readers share one converter of header fields."""

    scenario: str
    steps: int = 10
    tol: float = DEFAULT_TOL
    out: str | None = None
    lagrangian: str | None = None
    params: dict | None = None
    initial: np.ndarray | None = None
    # not an option: set only when a trajectory file is read back
    derivatives: str = field(default=DERIVATIVES[0], init=False)

    def __post_init__(self):
        if self.scenario not in list(SCENARIOS):  # unhashable values too
            raise DomainError("unknown scenario %r (expected one of %s)"
                              % (self.scenario, ", ".join(SCENARIOS)))
        steps, self.steps = self.steps, _converted("steps", self.steps, int)
        if not 2 <= self.steps == steps:
            raise DomainError("steps must be a whole number >= 2: %r" % steps)
        self.tol = _converted("tol", self.tol)
        if not self.tol > 0.0:
            raise DomainError("tol must be positive, got %r" % self.tol)
        name, defaults = SCENARIOS[self.scenario].lagrangian
        self.lagrangian = name if self.lagrangian is None else self.lagrangian
        self.params = dict(self.params or {})
        if self.lagrangian != name or not set(self.params) <= set(defaults):
            raise DomainError("%s knows the Lagrangian %r with the parameters "
                              "%s, not %r with %s" % (
                                  self.scenario, name, ", ".join(defaults),
                                  self.lagrangian, sorted(self.params)))
        self.params = {k: _converted("param." + k, v)
                       for k, v in self.params.items()}
        if self.initial is not None:
            self.initial = _converted(
                "initial", self.initial, lambda v: np.asarray(v, dtype=float))
            what, default = SCENARIOS[self.scenario].initial
            if self.initial.size != len(default):
                raise DomainError("%s initial data needs %d %s, got %d" % (
                    self.scenario, len(default), what, self.initial.size))

    @classmethod
    def _from_fields(cls, kv, where):
        """The config of the trajectory header's string fields ``kv``."""
        if "scenario" not in kv:
            raise DomainError("%s names no scenario" % where)
        try:
            params = {k[len("param."):]: float(v) for k, v in kv.items()
                      if k.startswith("param.")}
            initial = ([float(t) for t in kv["initial"].split()]
                       if "initial" in kv else None)
            numbers = {key: convert(kv[key]) for key, convert in (
                ("steps", int), ("tol", float)) if key in kv}
        except ValueError as exc:
            raise DomainError("%s: %s" % (where, exc))
        return cls(kv["scenario"], out=kv.get("out"),
                   lagrangian=kv.get("lagrangian"), params=params,
                   initial=initial, **numbers)

    @classmethod
    def from_ini(cls, path):
        """[scenario] id, steps, tol and out, [lagrangian] name and
        parameters, and [initial] coords; other keys outside [lagrangian]
        are ignored."""
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path, encoding="utf-8"):
                raise DomainError("config file %s not found or unreadable"
                                  % path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise DomainError("config %s: %s" % (path, exc))
        if "scenario" not in cp:
            raise DomainError("config %s: missing [scenario] section" % path)
        kv = {key: cp["scenario"][name] for key, name in (
            ("scenario", "id"), ("steps", "steps"), ("tol", "tol"),
            ("out", "out")) if name in cp["scenario"]}
        if "lagrangian" in cp:
            for key, val in cp["lagrangian"].items():
                kv["lagrangian" if key == "name" else "param." + key] = val
        if "initial" in cp and cp["initial"].get("coords"):
            kv["initial"] = cp["initial"]["coords"]
        return cls._from_fields(kv, "config %s" % path)

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
        lines.append("derivatives=" + DERIVATIVES[0])
        return lines

    @classmethod
    def from_comment_lines(cls, lines):
        kv = {}
        for line in lines:
            if "=" in line:
                key, _, val = line.partition("=")
                kv[key.strip()] = val.strip()
        config = cls._from_fields(kv, "trajectory header")
        config.derivatives = kv.get("derivatives", "fd")
        if config.derivatives not in DERIVATIVES:
            raise DomainError("trajectory header: unknown derivatives=%s"
                              % config.derivatives)
        return config


@dataclass
class RunReport:
    """Numbers recomputed from the emitted trajectory, plus wall-clock."""

    scenario: str
    residual_norms: list
    oracle_max: float | None = None
    correspondence_gap: float | None = None
    # set only when a trajectory file is read back: stored vs recomputed
    reproduce_gap: float | None = None
    wall_clock: float | None = None

    @property
    def max_residual(self):
        """The largest residual norm, NaN if one is: Python's max keeps a
        NaN only when it comes first."""
        return float(np.max(self.residual_norms, initial=0.0))

    def failures(self, tol):
        """The verdict of ``run``, ``export`` and ``check residual``: one
        line per bound broken, none on a pass.  Every residual norm within
        max(tol, 1e-9); the variational oracle, or the residuals where there
        is none, within ORACLE_TOL; a file's reproduce gap within
        REPRODUCE_TOL."""
        worst = self.max_residual
        bounds = [("max residual norm", worst, max(tol, 1e-9)),
                  ("max residual norm, no oracle", worst, ORACLE_TOL)
                  if self.oracle_max is None else
                  ("variational oracle max", self.oracle_max, ORACLE_TOL),
                  ("stored-vs-recomputed gap", self.reproduce_gap,
                   REPRODUCE_TOL)]
        # a bound without a value does not apply; not <=, so a NaN fails
        return ["%s %.3e above %g" % bound for bound in bounds
                if bound[1] is not None and not bound[1] <= bound[2]]

    def to_json(self):
        return json.dumps({key: val for key, val in asdict(self).items()
                           if val is not None}, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# built-in Lagrangians
# ---------------------------------------------------------------------------

def trivial_groupoid_lagrangian(dec, config: ScenarioConfig):
    """L(m, g, n) = k_pos/2 |n - m|^2 + k_rot/2 theta(g)^2 on M x G x M, of
    an arrow or of a stack of them."""
    p = dict(TrivialGroupoidScenario.lagrangian[1], **config.params)
    k_pos, k_rot = p["k_pos"], p["k_rot"]

    def evaluate(x):
        m, g, n = dec.trivial.split(x)
        return (0.5 * k_pos * np.sum((n - m) ** 2, axis=-1)
                + 0.5 * k_rot * g[..., 0] ** 2)

    def gradient(x):
        m, g, n = dec.trivial.split(x)
        return np.concatenate([k_pos * (m - n), k_rot * g, k_pos * (n - m)],
                              axis=-1)

    return DiscreteLagrangian(evaluate, gradient, name="spring", stacks=True,
                              gradient_stacks=True)


def matched_lagrangian(dec, L: DiscreteLagrangian):
    """L o phi_inv on the matched presentation, with the exact chain rule;
    it takes stacks when L does."""
    return DiscreteLagrangian(
        lambda u: L.evaluate(dec.phi_inv(u)),
        lambda u: dec.phi_inv_transpose(L.gradient(dec.phi_inv(u))),
        name=L.name + "_matched", stacks=L.stacks)


def sl2c_lagrangian(mp: Su2K, config: ScenarioConfig):
    """Quadratic form in the logarithmic coordinates of SU(2) x K with a
    bilinear coupling between the two factors."""
    p = dict(Sl2cScenario.lagrangian[1], **config.params)
    ig = np.array([p["ig1"], p["ig2"], p["ig3"]])
    ih = np.array([p["ih1"], p["ih2"], p["ih3"]])
    coupling = p["coupling"]

    def evaluate(u):
        g, h = mp.split(u)
        x = mp.G.log(g)
        y = mp.H.log(h)
        return (0.5 * float(x @ (ig * x)) + 0.5 * float(y @ (ih * y))
                + coupling * float(x @ y))

    def gradient(u):
        g, h = mp.split(u)
        if u.ndim > 1:
            # the re-check's stack of arrows, through the stacked twins
            x, dx = mp.G.log_dlog_stack(g)
            y, dy = mp.H.log_dlog_stack(h)
            return np.concatenate(
                [transposed_matvec(dx, ig * x + coupling * y),
                 transposed_matvec(dy, ih * y + coupling * x)], axis=-1)
        x, dx = mp.G.log_dlog(g)
        y, dy = mp.H.log_dlog(h)
        return np.concatenate([dx.T @ (ig * x + coupling * y),
                               dy.T @ (ih * y + coupling * x)])

    return DiscreteLagrangian(evaluate, gradient, name="quadratic",
                              gradient_stacks=True)


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def _system(config: ScenarioConfig):
    """(system, desc, L, first) of ``config`` as its record builds them: the
    system, the descriptor of its arrows, its built-in Lagrangian, taken with
    the file's derivatives, and the first arrow that the initial data name."""
    record = SCENARIOS[config.scenario]
    system, desc, L, first = record.build(config, np.asarray(
        record.initial[1] if config.initial is None else config.initial,
        dtype=float))
    if config.derivatives == "fd":
        L = DiscreteLagrangian(L.evaluate, name=L.name, stacks=L.stacks)
    return system, desc, L, first


def _rederived_rows(arrows, records, residual_norms):
    """The columns ``check residual`` re-derives, which lead every row of a
    trajectory file, as one array: [k, *arrow, *record, residual], the
    records being stacks with one row per arrow and the last row's
    residual 0."""
    return np.column_stack([np.arange(len(arrows), dtype=float),
                            np.array(arrows), *records,
                            residual_norms + [0.0]])


class TrivialGroupoidScenario:
    """The plane with rotations, solved with ``solve_trajectory`` directly on
    M x G x M and in its matched presentation, whose residuals and oracles
    its run reports, and cross-checked: phi_gap is the largest gap between
    the matched trajectory and the image of the direct one."""

    columns = "k m1 m2 theta n1 n2 res_direct res_matched phi_gap".split()
    old_columns = None
    lagrangian = "spring", dict(k_pos=1.0, k_rot=1.0)
    initial = "arrow coords (m, theta, n)", (0.0, 0.0, 0.3, 1.0, 0.0)

    def build(self, config, x0):
        dec = default_trivial_decomposition()
        return dec, dec.trivial, trivial_groupoid_lagrangian(dec, config), x0

    def run(self, config):
        dec, desc, L, x0 = _system(config)
        direct = solve_trajectory(desc, L, x0, config.steps, config.tol)
        matched = solve_trajectory(dec.matched, matched_lagrangian(dec, L),
                                   dec.phi(x0), config.steps, config.tol)
        res_direct = direct.residual_norms
        res_matched = matched.residual_norms
        phi_gap = max(float(np.max(np.abs(m - dec.phi(x))))
                      for x, m in zip(direct, matched))
        rows = [row + [rm, phi_gap] for row, rm in zip(
            _rederived_rows(direct.arrows, (), res_direct).tolist(),
            res_matched + [0.0])]
        report = RunReport(config.scenario, res_direct,
                           oracle_max=max(direct.oracle, matched.oracle),
                           correspondence_gap=max(
                               phi_gap,
                               max(abs(a - b) for a, b in
                                   zip(res_direct, res_matched))))
        return report, rows

    def rederive(self, config, desc, L, arrows):
        # res_matched and phi_gap would need the matched solve; an overflow
        # is a typed failure, as in sl2c's momentum re-check
        with solver_failure("trivial_groupoid re-check"):
            traj = Trajectory(desc, arrows)
            residuals = del_residuals(desc, L, traj)
            oracle = variational_oracle(desc, L, traj)
        return ([float(np.linalg.norm(r, np.inf)) for r in residuals],
                oracle, ())


class Sl2cScenario:
    """The SL(2, C) matched-pair group SU(2) x K, marched through its closed
    lift matrices; its run re-derives, as the re-check does, the momenta mu
    and nu (Phi, Psi) and the closed momentum form, which has no independent
    oracle: its norms take the oracle's bound."""

    columns = ("k A_w A_x A_y A_z B_a B_b B_c Phi_1 Phi_2 Phi_3 Psi_1 Psi_2 "
               "Psi_3 res_norm").split()
    # older rows end in the gap of a finite-difference cross-check, which
    # nothing re-derives
    old_columns = columns + ["formula_gap"]
    lagrangian = "quadratic", dict(coupling=0.0, ig1=1.0, ig2=1.0, ig3=1.0,
                                   ih1=1.0, ih2=1.0, ih3=1.0)
    initial = ("algebra coords (su(2) then K)",
               (0.2, -0.1, 0.15, 0.1, 0.05, -0.1))

    def build(self, config, x0):
        mp = Su2K()
        with solver_failure("sl2c initial data"):
            first = mp.exp(x0)
        return mp, mp, sl2c_lagrangian(mp, config), first

    def run(self, config):
        mp, _, L, first = _system(config)
        arrows, _ = march(mp, L, first, config.steps, config.tol)
        res_norms, _, records = self.rederive(config, mp, L, arrows)
        return (RunReport(config.scenario, res_norms),
                _rederived_rows(arrows, records, res_norms).tolist())

    def rederive(self, config, mp, L, arrows):
        # a legacy file's mu and nu went through finite-difference factor
        # lifts, which its stored digits keep
        momenta = arrow_momenta(mp, L, arrows, lift=(
            Group.lift_matrix if config.derivatives == "fd" else None))
        residuals = momentum_residuals(mp, arrows, momenta)
        return np.max(np.abs(residuals), axis=-1).tolist(), None, momenta[1:]


# the built-in scenarios by name, in the order commands list them.  A record
# holds its files' columns (and an older layout, or None), its Lagrangian's
# name and defaults, its initial data's meaning and defaults, and build(config,
# x0) -> (system, desc, L, first), run(config) -> (report, rows) and
# rederive(config, desc, L, arrows) -> (residual norms, oracle, records)
SCENARIOS = {"trivial_groupoid": TrivialGroupoidScenario(),
             "sl2c": Sl2cScenario()}


def run_scenario(config: ScenarioConfig):
    """``config``'s run, its report stamped with the wall clock it took."""
    record = SCENARIOS[config.scenario]
    t0 = time.perf_counter()
    report, rows = record.run(config)
    report.wall_clock = time.perf_counter() - t0
    return report, record.columns, rows


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
    comments, header, rows = [], None, []
    # a ValueError: a field that is not a number, or text that is not UTF-8
    try:
        with open(path, encoding="utf-8") as fh:
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
    except ValueError as exc:
        raise DomainError("trajectory file %s: %s" % (path, exc))
    if header is None:
        raise DomainError("trajectory file %s has no header row" % path)
    return ScenarioConfig.from_comment_lines(comments), header, rows


def check_residual_file(path):
    """Re-read an emitted trajectory laid out as its record's columns or
    old_columns, re-derive every residual norm and record, for sl2c every
    momentum, from the arrows alone with the record's ``rederive``, rebuild
    the rows' leading columns from them as ``run`` does, the first arrow
    from the header's initial data, and take the largest gap to the stored
    values.  Returns (failures, report) as ``RunReport.failures``."""
    config, header, rows = read_trajectory_csv(path)
    record = SCENARIOS[config.scenario]
    if (header not in (record.columns, record.old_columns)
            or any(len(row) != len(header) for row in rows)):
        raise DomainError("trajectory file %s: a %s file has the header %s "
                          "and one field per column in every row"
                          % (path, config.scenario, ",".join(record.columns)))
    if len(rows) != config.steps:
        raise DomainError("trajectory file %s: steps=%d but %d rows"
                          % (path, config.steps, len(rows)))
    try:
        _, desc, L, first = _system(config)
        arrows = [np.array(row[1:1 + desc.arrow_dim]) for row in rows]
        if not np.all(np.isfinite(arrows)):
            raise DomainError("an arrow coordinate is not finite")
        recomputed, oracle, records = record.rederive(config, desc, L, arrows)
    except MatchdynError as exc:
        # e.g. a corrupted quaternion
        return (["invalid arrow data: %s" % exc],
                RunReport(config.scenario, []))
    # the first row's arrow is the one the header's initial data name
    rebuilt = _rederived_rows([first, *arrows[1:]], records, recomputed)
    # np.max, not max: a NaN anywhere is the gap
    gap = float(np.max(np.abs(
        rebuilt - np.array(rows)[:, :rebuilt.shape[1]])))
    report = RunReport(config.scenario, recomputed, oracle_max=oracle,
                       reproduce_gap=gap)
    return report.failures(config.tol), report


def run_axiom_suites(seed=0, n_samples=200, tol=1e-9):
    """Matched-group and groupoid axiom suites; returns (ok, merged report).
    A negative seed, fewer than one sample or a tolerance outside (0, inf)
    is a DomainError."""
    if seed < 0 or n_samples < 1 or not 0.0 < tol < np.inf:
        raise DomainError("check axioms needs seed >= 0, samples >= 1 and "
                          "0 < tol < inf, got seed=%d samples=%d tol=%r"
                          % (seed, n_samples, tol))
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
    # the closed induced-action pairs that every sl2c solve reads, block by
    # block against generic()'s finite-difference ones: above the exact
    # laws' tol
    generic = mp.generic()
    gaps = dict.fromkeys(CLOSED_ACTIONS, 0.0)
    for _ in range(n_samples):
        h, g = mp.H.random(rng), mp.G.random(rng)
        for name, closed, fd in zip(
                CLOSED_ACTIONS,
                mp.g_fiber_actions(h) + mp.h_fiber_actions(g),
                generic.g_fiber_actions(h) + generic.h_fiber_actions(g)):
            record_deviation(gaps, name, closed, fd)
    # np.max, not max: a NaN anywhere fails
    ok = bool(np.max(list(merged.values())) <= tol
              and np.max(list(loose.values()), initial=0.0) <= 1e-4
              and np.max(list(gaps.values())) <= 1e-7)
    merged.update(loose)
    merged.update(("su2k.closed_vs_generic." + name, gap)
                  for name, gap in gaps.items())
    return ok, merged
