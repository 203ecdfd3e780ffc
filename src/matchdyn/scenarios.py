"""Built-in scenarios: the rotating-frame trivial groupoid on the plane and
the SL(2, C) matched-pair group, plus config parsing and trajectory I/O.

Config files are INI; trajectory files are CSV whose leading '#' comment
lines embed the full config, so a trajectory can be re-verified without the
original config file.  Reals are serialized with 17 significant digits to
keep the round trip bit-stable.  The comment lines also record how the
writer took derivatives (``derivatives=exact``: closed gradients and lift
matrices); a file without that line was written with finite differences, and
is re-verified the same way, because the two disagree in the last digits
that the stored residual norms keep.
"""
from __future__ import annotations

import configparser
import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import (
    ORACLE_TOL,
    DiscreteLagrangian,
    Trajectory,
    arrow_momenta,
    march,
    momentum_residuals,
    solve_trajectory,
    solver_failure,
    variational_oracle,
)
from .errors import DomainError, FormulaMismatch, MatchdynError
from .groupoids import default_trivial_decomposition
from .groups import Group
from .matched_group import Su2K

FMT = "%.17g"
FORMULA_TOL = 1e-7
REPRODUCE_TOL = 1e-12

SCENARIOS = ("trivial_groupoid", "sl2c")
# how the derivatives in a trajectory file were taken: this writer takes the
# first; a file without the derivatives= line took the second
DERIVATIVES = ("exact", "fd")

# trajectory-file columns of each scenario
HEADERS = {
    "trivial_groupoid": "k m1 m2 theta n1 n2 res_direct res_matched phi_gap"
                        .split(),
    "sl2c": ("k A_w A_x A_y A_z B_a B_b B_c Phi_1 Phi_2 Phi_3 Psi_1 Psi_2 "
             "Psi_3 res_norm formula_gap").split(),
}
# first and last arrow column of each scenario's files
ARROW_COLUMNS = {"trivial_groupoid": ("m1", "n2"), "sl2c": ("A_w", "B_c")}


@dataclass(eq=False)
class ScenarioConfig:
    """Flat scenario description: which system, which built-in Lagrangian
    with which parameters, initial data, step count, tolerance.  Validated on
    construction, ``dataclasses.replace`` included: a tolerance in (0, inf)
    and finite parameters and initial data, so a non-finite value is a config
    error, not a solver failure.  The INI and trajectory header readers share
    one converter of header fields."""

    scenario: str
    steps: int = 10
    tol: float = 1e-10
    out: str | None = None
    lagrangian: str | None = None
    params: dict | None = None
    initial: np.ndarray | None = None
    # not an option: set only when a trajectory file is read back
    derivatives: str = field(default=DERIVATIVES[0], init=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DomainError("unknown scenario %r (expected one of %s)"
                              % (self.scenario, ", ".join(SCENARIOS)))
        if self.steps < 2:
            raise DomainError("steps must be >= 2, got %d" % self.steps)
        self.steps = int(self.steps)
        self.tol = float(self.tol)
        # not <=, so a NaN is rejected too
        if not 0.0 < self.tol < np.inf:
            raise DomainError("tol must be positive and finite, got %r"
                              % self.tol)
        self.lagrangian = self.lagrangian or (
            "spring" if self.scenario == "trivial_groupoid" else "quadratic")
        self.params = dict(self.params or {})
        if not np.all(np.isfinite(list(self.params.values()))):
            raise DomainError("a Lagrangian parameter is not finite: %s"
                              % self.params)
        if self.initial is not None:
            self.initial = np.asarray(self.initial, dtype=float)
            if not np.all(np.isfinite(self.initial)):
                raise DomainError("an initial coordinate is not finite: %s"
                                  % self.initial)

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
            steps, tol = int(kv.get("steps", 10)), float(kv.get("tol", 1e-10))
        except ValueError as exc:
            raise DomainError("%s: %s" % (where, exc))
        return cls(kv["scenario"], steps=steps, tol=tol, out=kv.get("out"),
                   lagrangian=kv.get("lagrangian"), params=params,
                   initial=initial)

    @classmethod
    def from_ini(cls, path):
        """[scenario] id, steps, tol and out, [lagrangian] name and
        parameters, and [initial] coords; any other key is ignored."""
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path):
                raise DomainError("config file %s not found or unreadable"
                                  % path)
        except configparser.Error as exc:
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
    momentum_defect: float | None = None
    correspondence_gap: float | None = None
    formula_gap: float | None = None
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

    def as_dict(self):
        return {key: val for key, val in asdict(self).items()
                if val is not None}

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

    def gradient(x):
        m, g, n = dec.trivial.split(x)
        return np.concatenate([k_pos * (m - n), k_rot * g, k_pos * (n - m)])

    return DiscreteLagrangian(evaluate, gradient, name="spring")


def matched_lagrangian(dec, L: DiscreteLagrangian):
    """L o phi_inv on the matched presentation, with the exact chain rule."""
    return DiscreteLagrangian(
        lambda u: L(dec.phi_inv(u)),
        lambda u: dec.phi_inv_transpose(L.gradient(dec.phi_inv(u))),
        name=L.name + "_matched")


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

    def gradient(u):
        g, h = mp.split(u)
        x = mp.G.log(g)
        y = mp.H.log(h)
        return np.concatenate([mp.G.dlog(g).T @ (ig * x + coupling * y),
                               mp.H.dlog(h).T @ (ih * y + coupling * x)])

    return DiscreteLagrangian(evaluate, gradient, name="quadratic")


def _fd_derivatives(L: DiscreteLagrangian, *groups):
    """L without its closed gradient, and the groups switched to the
    finite-difference ``Group.lift_matrix``: the derivatives of a trajectory
    file that has no derivatives= line."""
    for G in groups:
        G.lift_matrix = functools.partial(Group.lift_matrix, G)
    return DiscreteLagrangian(L.evaluate, name=L.name)


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def run_trivial_groupoid(config: ScenarioConfig):
    """Solve the plane-with-rotations system in both presentations, direct
    on M x G x M and matched-pair, with ``solve_trajectory``, and
    cross-check them.

    Returns (report, header, rows); each row holds the direct arrow
    (m, theta, n), the junction residual norms of both presentations, and
    the gap between the matched trajectory and the image of the direct one.
    """
    t0 = time.perf_counter()
    dec = default_trivial_decomposition()
    L = trivial_groupoid_lagrangian(dec, config)
    Lm = matched_lagrangian(dec, L)
    x0 = config.initial
    if x0 is None:
        x0 = np.array([0.0, 0.0, 0.3, 1.0, 0.0])
    if x0.size != dec.trivial.arrow_dim:
        raise DomainError("trivial_groupoid initial arrow needs %d coords "
                          "(m, theta, n), got %d"
                          % (dec.trivial.arrow_dim, x0.size))
    direct = solve_trajectory(dec.trivial, L, x0, config.steps, config.tol)
    matched = solve_trajectory(dec.matched, Lm, dec.phi(x0), config.steps,
                               config.tol)
    res_direct = direct.residual_norms
    res_matched = matched.residual_norms
    phi_gap = max(float(np.max(np.abs(m - dec.phi(x))))
                  for x, m in zip(direct, matched))

    header = HEADERS["trivial_groupoid"]
    rows = []
    for k, (x, rd, rm) in enumerate(zip(direct, res_direct + [0.0],
                                        res_matched + [0.0])):
        rows.append([float(k)] + [float(v) for v in x] + [rd, rm, phi_gap])

    report = RunReport("trivial_groupoid", res_direct,
                       oracle_max=max(direct.oracle, matched.oracle),
                       correspondence_gap=max(
                           phi_gap,
                           max(abs(a - b) for a, b in
                               zip(res_direct, res_matched))),
                       wall_clock=time.perf_counter() - t0)
    return report, header, rows


def run_sl2c(config: ScenarioConfig):
    """Solve the SL(2, C) matched-group recursion through the closed-form
    lift matrices, then evaluate the closed momentum form and its
    finite-difference assembly at every solved junction; the closed form's
    norms are stored, and a mismatch beyond FORMULA_TOL raises
    FormulaMismatch naming its step."""
    t0 = time.perf_counter()
    mp = Su2K()
    L = sl2c_lagrangian(mp, config)
    w0 = config.initial
    if w0 is None:
        w0 = np.array([0.2, -0.1, 0.15, 0.1, 0.05, -0.1])
    if w0.size != mp.dim:
        raise DomainError("sl2c initial data needs %d algebra coords "
                          "(su(2) then K), got %d" % (mp.dim, w0.size))
    # exp(-38 e_c) has c = expm1(-38), which rounds onto c = -1
    with solver_failure("sl2c initial data"):
        u1 = mp.check(mp.exp(np.asarray(w0, dtype=float)))
    arrows, _ = march(mp, L, u1, config.steps, config.tol)
    # generic() shares G and H, so both forms read the same momenta
    momenta = arrow_momenta(mp, L, arrows)
    closed = momentum_residuals(mp, arrows, momenta)
    gaps = [float(np.max(np.abs(rc - rf))) for rc, rf in
            zip(closed, momentum_residuals(mp.generic(), arrows, momenta))]
    for k, gap in enumerate(gaps, 1):
        if gap > FORMULA_TOL:
            raise FormulaMismatch(
                "closed-form and finite-difference residuals disagree by "
                "%.3e at step %d" % (gap, k))
    formula_gap = max(gaps)
    res_norms = [float(np.linalg.norm(r, np.inf)) for r in closed]

    header = HEADERS["sl2c"]
    rows = []
    for k, (u, (_, mu, nu), rn) in enumerate(zip(arrows, momenta,
                                                  res_norms + [0.0])):
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
                try:
                    rows.append([float(t) for t in line.split(",")])
                except ValueError as exc:
                    raise DomainError("trajectory file %s: %s" % (path, exc))
    if header is None:
        raise DomainError("trajectory file %s has no header row" % path)
    return ScenarioConfig.from_comment_lines(comments), header, rows


def check_residual_file(path):
    """Re-read an emitted trajectory laid out as HEADERS says, recompute
    every residual norm, and for sl2c every momentum, from the arrows alone,
    and compare them, the row numbers and the last row's zero residual
    against the stored values.  Returns (failures, report) as
    ``RunReport.failures``."""
    config, header, rows = read_trajectory_csv(path)
    columns = HEADERS[config.scenario]
    if header != columns or any(len(row) != len(columns) for row in rows):
        raise DomainError("trajectory file %s: a %s file has the header %s "
                          "and one field per column in every row"
                          % (path, config.scenario, ",".join(columns)))
    if len(rows) != config.steps:
        raise DomainError("trajectory file %s: steps=%d but %d rows"
                          % (path, config.steps, len(rows)))
    try:
        report = _recheck_rows(config, rows)
    except MatchdynError as exc:
        # e.g. a corrupted quaternion
        return (["invalid arrow data: %s" % exc],
                RunReport(config.scenario, []))
    return report.failures(config.tol), report


def _recheck_rows(config, rows):
    fd = config.derivatives == "fd"
    col = HEADERS[config.scenario].index
    first, last = ARROW_COLUMNS[config.scenario]
    arrows = [np.array(row[col(first):col(last) + 1]) for row in rows]
    if not np.all(np.isfinite(arrows)):
        raise DomainError("an arrow coordinate is not finite")
    if config.scenario == "trivial_groupoid":
        dec = default_trivial_decomposition()
        L = trivial_groupoid_lagrangian(dec, config)
        if fd:
            L = _fd_derivatives(L, dec.G)
        res_col = col("res_direct")
        # checks that the arrows compose, as del_residual would
        traj = Trajectory(dec.trivial, arrows)
        # del_residual's two mat-vecs, from one gradient per arrow
        grads = [L.gradient(a) for a in arrows]
        recomputed = [float(np.linalg.norm(
            dec.trivial.left_lift(a).T @ d - dec.trivial.right_lift(b).T @ e,
            np.inf)) for a, b, d, e in zip(arrows, arrows[1:], grads,
                                           grads[1:])]
        # res_matched and phi_gap would need the matched solve
        momentum_gap = 0.0
        oracle = variational_oracle(dec.trivial, L, traj)
    else:
        mp = Su2K()
        L = sl2c_lagrangian(mp, config)
        if fd:
            L = _fd_derivatives(L, mp.G, mp.H)
        res_col = col("res_norm")
        momenta = arrow_momenta(mp, L, arrows)
        recomputed = [float(np.linalg.norm(r, np.inf))
                      for r in momentum_residuals(mp, arrows, momenta)]
        # formula_gap would need the finite-difference pair
        momentum_gap = np.max([np.abs(
            np.concatenate([mu, nu]) - row[col("Phi_1"):col("Psi_3") + 1])
            for (_, mu, nu), row in zip(momenta, rows)])
        # no independent oracle: the residuals themselves take its bound
        oracle = None
    # np.max, not max: a NaN anywhere is the gap; the writer numbers the
    # rows from 0 and pads the last row's residual with 0
    gap = float(np.max([momentum_gap]
                       + [abs(row[0] - k) for k, row in enumerate(rows)]
                       + [abs(row[res_col] - r) for row, r in
                          zip(rows, recomputed + [0.0])]))
    return RunReport(config.scenario, recomputed, oracle_max=oracle,
                     reproduce_gap=gap)


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
    ok = (max(merged.values()) <= tol
          and max(loose.values(), default=0.0) <= 1e-4)
    merged.update(loose)
    return ok, merged
