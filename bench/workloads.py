"""Seeded inputs, timed requests and the independent correctness gate of the
four benchmark workloads.

Every input comes from ``--seed`` alone: INI configs for the two CLI
scenarios, arrays for the library solves, and trajectory CSV files that the
scenario generators emit for ``verify``.  Files are written to the current
directory under relative names, so one seed gives byte-identical files
wherever it runs.  Amplitudes and parameters are drawn stratified (one per
equal slice of the range, jittered inside it) and trajectory lengths are
balanced, so that two seeds give different inputs with the same mix of cheap
and expensive requests; this keeps run-to-run spread down to what the program
does rather than which inputs the seed happened to draw.  The warm-up
request of set-up is the same for every seed, so that ``setup_s`` does not
move with the seed either.

A request is the timed unit: one CLI invocation or one library solve call.
Its gate runs afterwards, outside the timed window, and checks the result
with ``variational_oracle`` on a descriptor the request did not use.
"""
from __future__ import annotations

import contextlib
import io
import os

import numpy as np

WORKLOADS = ("sl2c", "trivial_groupoid", "groups_pairs", "verify")

ORACLE_TOL = 1e-6
TAMPER = 1e-4

# default initial data of the two scenarios (see matchdyn.scenarios)
SL2C_DIRECTION = np.array([0.2, -0.1, 0.15, 0.1, 0.05, -0.1])
TG_ARROW = np.array([0.0, 0.0, 0.3, 1.0, 0.0])

# Pool sizes and lengths.  Pools are odd-sized so that the median request
# falls inside one input's samples rather than on the edge between two.
# sl2c stops at x3: near x3.7 a Newton trial step can leave the K chart and
# `matchdyn run` exits 2 (a known solver defect), and no request may fail
SL2C_POOL, SL2C_STEPS, SL2C_AMP = 21, (2, 3, 4), (1.0, 3.0)
TG_POOL, TG_STEPS, TG_AMP = 17, (2, 3, 4), (0.5, 2.0)
SO3_STEPS = (2, 3, 4, 3, 2)
# kind -> requests per pass; every pair solve is two arrows (one junction)
PAIR_KINDS = {"right_trivial": 4, "left_trivial": 4, "both_trivial": 4}
# scenario -> lengths of the trajectory files set-up emits
VERIFY_FILES = {"sl2c": (6, 9), "trivial_groupoid": (6, 9, 12)}


class Request:
    """One timed call.  ``call()`` does the work and returns a payload;
    ``gate(payload)`` returns None when the output is correct, otherwise a
    one-line reason."""

    def __init__(self, label, junctions, call, gate, arrays=None):
        self.label = label
        self.junctions = junctions
        self.call = call
        self.gate = gate
        self.arrays = arrays or {}


class Inputs:
    def __init__(self, requests, warmup, summary, untimed=()):
        self.requests = requests
        self.warmup = warmup
        self.summary = summary
        self.untimed = list(untimed)


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _stratified(rng, n, lo, hi):
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _latin(rng, n, ranges):
    """Latin hypercube: n points, one per equal slice of every range, the
    slices of each coordinate shuffled independently."""
    return {name: _stratified(rng, n, lo, hi)[rng.permutation(n)]
            for name, (lo, hi) in ranges.items()}


def _balanced(rng, n, values):
    return [int(values[i % len(values)]) for i in rng.permutation(n)]


def _fmt(values):
    return " ".join(repr(float(v)) for v in values)


def run_cli(md, argv):
    """matchdyn.cli.main in-process with its output captured; the module
    attribute is looked up at call time so a tracer's wrapper applies."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = md.cli.main(argv)
    return rc, buf.getvalue()


def read_rows(path):
    """Numeric rows of a trajectory CSV (comments and header skipped)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    return [[float(t) for t in ln.split(",")] for ln in data[1:]]


# ---------------------------------------------------------------------------
# scenario configs
# ---------------------------------------------------------------------------

class ScenarioInput:
    """A seeded scenario config, written out as INI."""

    def __init__(self, scenario, steps, coords, params, amplitude, path, out):
        self.scenario = scenario
        self.steps = steps
        self.coords = np.asarray(coords, dtype=float)
        self.params = params
        self.amplitude = amplitude
        self.path = path
        self.out = out

    def write(self):
        lines = ["[scenario]", "id = %s" % self.scenario,
                 "steps = %d" % self.steps, "out = %s" % self.out, "",
                 "[lagrangian]"]
        lines += ["%s = %r" % (k, float(v)) for k, v in self.params.items()]
        lines += ["", "[initial]", "coords = %s" % _fmt(self.coords), ""]
        with open(self.path, "w") as fh:
            fh.write("\n".join(lines))


# scenario -> (default initial data, noise scale, amplitude range, Lagrangian
# parameter ranges)
SCENARIO_INPUTS = {
    "sl2c": (SL2C_DIRECTION, 0.02, SL2C_AMP,
             dict({"coupling": (0.0, 0.5)},
                  **{n: (0.5, 2.0) for n in ("ig1", "ig2", "ig3", "ih1",
                                             "ih2", "ih3")})),
    "trivial_groupoid": (TG_ARROW, 0.05, TG_AMP,
                         {"k_pos": (0.5, 2.0), "k_rot": (0.5, 2.0)}),
}


def scenario_inputs(rng, scenario, steps, names, out):
    """One config per entry of ``steps``, plus a little noise on the initial
    data.  The amplitude and every Lagrangian parameter are drawn as a Latin
    hypercube within each trajectory length, so that for every seed each
    length covers the whole amplitude range and the request-time
    distribution keeps its shape."""
    base, noise, amp_range, ranges = SCENARIO_INPUTS[scenario]
    draw = [None] * len(steps)
    for n in sorted(set(steps)):
        idx = [i for i, s in enumerate(steps) if s == n]
        lhs = _latin(rng, len(idx), dict({"amp": amp_range}, **ranges))
        for j, i in enumerate(idx):
            draw[i] = {k: float(v[j]) for k, v in lhs.items()}
    inputs = []
    for n, name, d in zip(steps, names, draw):
        amp = d.pop("amp")
        coords = amp * base + noise * rng.standard_normal(base.size)
        inputs.append(ScenarioInput(scenario, n, coords, d, amp, name, out))
    return inputs


def warmup_input(scenario):
    """The warm-up config: two steps at the middle of every range, the same
    for every seed, because its cost is part of setup_s."""
    base, _, (lo, hi), ranges = SCENARIO_INPUTS[scenario]
    amp = (lo + hi) / 2
    params = {k: (a + b) / 2 for k, (a, b) in ranges.items()}
    return ScenarioInput(scenario, 2, amp * base, params, amp, "warmup.ini",
                         "out.csv")


def scenario_lagrangian(md, inp):
    """(descriptor, L) for the independent oracle of a scenario run: the
    matched-pair group itself for sl2c, the direct trivial groupoid for
    trivial_groupoid."""
    config = md.scenarios.ScenarioConfig(inp.scenario, params=inp.params)
    if inp.scenario == "sl2c":
        mp = md.Su2K()
        return (md.GroupGroupoid(mp),
                md.scenarios.sl2c_lagrangian(mp, config),
                slice(1, 8), mp.exp(inp.coords))
    dec = md.default_trivial_decomposition()
    return (dec.trivial,
            md.scenarios.trivial_groupoid_lagrangian(dec, config),
            slice(1, 6), inp.coords)


def gate_trajectory_file(md, inp, path):
    """Independent check of an emitted trajectory: the right number of
    arrows, the requested initial arrow, and oracle <= 1e-6."""
    rows = read_rows(path)
    if len(rows) != inp.steps:
        return "expected %d arrows, found %d" % (inp.steps, len(rows))
    desc, L, cols, first = scenario_lagrangian(md, inp)
    arrows = [np.array(r[cols]) for r in rows]
    if np.max(np.abs(arrows[0] - first)) > 1e-12:
        return "initial arrow does not match the input"
    oracle = md.variational_oracle(desc, L, md.Trajectory(desc, arrows))
    if not oracle <= ORACLE_TOL:
        return "variational oracle %.3e > %.0e" % (oracle, ORACLE_TOL)
    return None


def _run_request(md, inp):
    def call():
        return run_cli(md, ["run", "--config", inp.path])

    def gate(payload):
        rc, text = payload
        if rc != 0:
            return "matchdyn run exited %d: %s" % (rc, text.strip()[-200:])
        return gate_trajectory_file(md, inp, inp.out)

    return Request("%s amp=%.2f steps=%d" % (inp.scenario, inp.amplitude,
                                              inp.steps),
                   inp.steps - 1, call, gate)


def _scenario_workload(md, scenario, seed):
    pool, lengths, (lo, hi) = {
        "sl2c": (SL2C_POOL, SL2C_STEPS, SL2C_AMP),
        "trivial_groupoid": (TG_POOL, TG_STEPS, TG_AMP)}[scenario]
    rng = _rng(seed, scenario)
    inputs = scenario_inputs(rng, scenario, _balanced(rng, pool, lengths),
                             ["req%02d.ini" % i for i in range(pool)],
                             "out.csv")
    warm = warmup_input(scenario)
    for inp in inputs + [warm]:
        inp.write()
    summary = {"amplitudes": [round(inp.amplitude, 4) for inp in inputs],
               "steps": [inp.steps for inp in inputs],
               "junctions_per_cycle": sum(i.steps - 1 for i in inputs)}
    return Inputs([_run_request(md, i) for i in inputs],
                  _run_request(md, warm), summary)


# ---------------------------------------------------------------------------
# groups_pairs: library solves on SO(3) and the three degenerate pairs
# ---------------------------------------------------------------------------

def _spd(rng, n):
    """Random orientation, eigenvalues one per slice of [1, 3]: the same
    conditioning for every seed."""
    R, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return R @ np.diag(_stratified(rng, n, 1.0, 3.0)) @ R.T


def _log_quadratic(md, G, Q):
    return md.DiscreteLagrangian(lambda g: 0.5 * float(G.log(g) @ Q
                                                       @ G.log(g)),
                                 name="log_quadratic")


def _so3_request(md, rng, amp, n_steps):
    desc = md.GroupGroupoid(md.SO3())
    L_diag = rng.uniform(1.0, 3.0, 3)
    L = _log_quadratic(md, desc.G, np.diag(L_diag))
    direction = rng.standard_normal(3)
    g1 = desc.G.exp(amp * 0.2 * direction / np.linalg.norm(direction))

    def call():
        traj = md.dynamics.solve_trajectory(desc, L, g1, n_steps)
        _, defect = md.dynamics.momentum_evolution(desc, L, traj)
        return traj, defect

    def gate(payload):
        traj, defect = payload
        if len(traj) != n_steps:
            return "expected %d arrows, found %d" % (n_steps, len(traj))
        oracle = md.variational_oracle(md.GroupGroupoid(md.SO3()), L,
                                       md.Trajectory(desc, traj.arrows))
        if not oracle <= ORACLE_TOL:
            return "variational oracle %.3e" % oracle
        if not defect <= ORACLE_TOL:
            return "momentum recursion defect %.3e" % defect
        return None

    return Request("so3 amp=%.2f steps=%d" % (amp, n_steps), n_steps - 1,
                   call, gate, {"L": np.diag(L_diag), "g1": g1})


def _pair_request(md, rng, kind, amp, n_steps):
    mp = getattr(md.matched_group, kind + "_pair")()
    Q = _spd(rng, mp.dim)
    L = _log_quadratic(md, mp, Q)
    direction = rng.standard_normal(mp.dim)
    u1 = mp.exp(amp * 0.2 * direction / np.linalg.norm(direction))

    def call():
        return md.dynamics.solve_matched_group_trajectory(mp, L, u1, n_steps,
                                                          form="full")

    def gate(payload):
        arrows, _ = payload
        if len(arrows) != n_steps:
            return "expected %d arrows, found %d" % (n_steps, len(arrows))
        desc = md.GroupGroupoid(mp)
        oracle = md.variational_oracle(desc, L, md.Trajectory(desc, arrows))
        if not oracle <= ORACLE_TOL:
            return "variational oracle %.3e" % oracle
        return None

    return Request("%s amp=%.2f steps=%d" % (kind, amp, n_steps),
                   n_steps - 1, call, gate, {"L": Q, "u1": u1})


def _groups_pairs_workload(md, seed):
    rng = _rng(seed, "groups_pairs")
    requests = []
    amps = {}
    so3_amps = _stratified(rng, len(SO3_STEPS), 1.0, 3.0)
    for amp, n in zip(so3_amps, _balanced(rng, len(SO3_STEPS), SO3_STEPS)):
        requests.append(_so3_request(md, rng, amp, n))
    amps["so3"] = so3_amps
    for kind, count in PAIR_KINDS.items():
        kamps = _stratified(rng, count, 1.0, 3.0)
        for amp in kamps:
            requests.append(_pair_request(md, rng, kind, amp, 2))
        amps[kind] = kamps
    requests = [requests[i] for i in rng.permutation(len(requests))]
    # the same warm-up for every seed: its cost is part of setup_s
    warm = _so3_request(md, np.random.default_rng(0), 1.0, 2)
    summary = {"amplitudes": {k: [round(float(a), 4) for a in v]
                              for k, v in amps.items()},
               "requests": [r.label for r in requests],
               "junctions_per_cycle": sum(r.junctions for r in requests)}
    return Inputs(requests, warm, summary)


# ---------------------------------------------------------------------------
# verify: re-reading emitted trajectory files
# ---------------------------------------------------------------------------

def tamper(src, dst, scenario):
    """Copy a trajectory file with one arrow coordinate of an interior row
    moved by TAMPER, keeping the 17-digit format of every other field."""
    with open(src) as fh:
        lines = fh.read().splitlines()
    data = [i for i, ln in enumerate(lines)
            if ln and not ln.startswith("#")][1:]
    row = data[len(data) // 2]
    fields = lines[row].split(",")
    # sl2c: B_a, a K-chart coordinate; trivial_groupoid: m1
    col = 5 if scenario == "sl2c" else 1
    fields[col] = "%.17g" % (float(fields[col]) + TAMPER)
    lines[row] = ",".join(fields)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_request(md, path, junctions, expect_rc):
    def call():
        return run_cli(md, ["check", "residual", path])

    def gate(payload):
        rc, text = payload
        if rc != expect_rc:
            return "check residual %s exited %d, expected %d" % (
                os.path.basename(path), rc, expect_rc)
        if expect_rc == 0 and "trajectory check: pass" not in text:
            return "check residual did not report a pass"
        return None

    return Request("check %s" % os.path.basename(path), junctions, call, gate)


def _verify_workload(md, seed):
    rng = _rng(seed, "verify")
    files = []
    for scenario, steps in VERIFY_FILES.items():
        names = ["%s%d.ini" % (scenario, i) for i in range(len(steps))]
        for inp in scenario_inputs(rng, scenario, steps, names, None):
            inp.out = inp.path.replace(".ini", ".csv")
            inp.write()
            rc, text = run_cli(md, ["run", "--config", inp.path])
            if rc != 0:
                raise RuntimeError("generating %s failed: %s"
                                   % (inp.out, text))
            err = gate_trajectory_file(md, inp, inp.out)
            if err:
                raise RuntimeError("generated %s: %s" % (inp.out, err))
            files.append(inp)
    requests = [_check_request(md, inp.out, inp.steps - 1, 0)
                for inp in files]
    tampered = []
    for scenario in VERIFY_FILES:
        inp = next(f for f in files if f.scenario == scenario)
        bad = inp.out.replace(".csv", "_tampered.csv")
        tamper(inp.out, bad, scenario)
        tampered.append(_check_request(md, bad, inp.steps - 1, 1))
    summary = {"amplitudes": [round(inp.amplitude, 4) for inp in files],
               "steps": [inp.steps for inp in files],
               "junctions_per_cycle": sum(r.junctions for r in requests)}
    return Inputs(requests, requests[0], summary, untimed=tampered)


def generate(md, workload, seed):
    """Inputs of one workload; files go to the current directory."""
    if workload in SCENARIO_INPUTS:
        return _scenario_workload(md, workload, seed)
    if workload == "groups_pairs":
        return _groups_pairs_workload(md, seed)
    if workload == "verify":
        return _verify_workload(md, seed)
    raise ValueError("unknown workload %r" % workload)


def default_run(md, scenario):
    """The scenario's default config at 20 steps, through the CLI (the
    configuration the counter-sanity figures refer to)."""
    out = "default_%s.csv" % scenario
    rc, text = run_cli(md, ["run", scenario, "--steps", "20", "--out", out])
    if rc != 0:
        raise RuntimeError("default %s run failed: %s" % (scenario, text))
    return 19
