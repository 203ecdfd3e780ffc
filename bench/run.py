"""matchdyn benchmark: milliseconds per junction solve on four seeded
workloads, with a traced per-layer split.

    python3 bench/run.py --workload {sl2c,trivial_groupoid,groups_pairs,verify}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each figure comes from a child process (worker.py) started with
BLAS pinned to one thread, so peak RSS and the tracing state belong to one
workload only.

--trace 0  set up five times in fresh processes (``setup_s`` is the median),
           then measure for S seconds with no wrappers installed and print
           the end-to-end metrics.
--trace 1  measure S/2 seconds untraced and S/2 seconds traced, and print the
           per-layer metrics, the counter-sanity figures of the two default
           configs and the tracing overhead.

Times are milliseconds at reference host speed: wall times divided by how
much slower than REFERENCE_MS a fixed kernel ran between the requests of the
same run (calibrate.py), because the host this was built on slows by up to
2x for tens of seconds at a time.  The raw wall-clock figure and the host
factor are printed beside them.  ``setup_s`` is divided by the host factor
of the timed run that follows its set-ups: the few kernel samples a set-up
could take itself vary too much, while on a shared 2-vCPU host the drift
between runs moved raw set-up times by 40%.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# siblings are imported by path, also where Python leaves the script's
# directory off sys.path (PYTHONSAFEPATH)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402

ROOT = os.path.dirname(HERE)

WORKLOADS = ("sl2c", "trivial_groupoid", "groups_pairs", "verify")
SETUP_REPEATS = 5
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
# every child together must leave the benchmark inside its 180 s budget
DEADLINE_S = 170.0
# request_ms_tail is read at a fixed percentile per workload: a high one with
# at least ten requests beyond it at this commit's request rate, also when the
# host runs at 1.7x the reference kernel time and sl2c fits only two passes of
# its pool (42 requests) in 20 s.  It is placed inside the samples of one
# input of the pool (percentile x pool size near n + 1/2) rather than on the
# edge between two inputs, where it would jump with the inputs a seed draws.
# Fixed, so that a faster program is read at the same percentile; the number
# of requests beyond it is printed beside it.
TAIL_PERCENTILE = {"sl2c": 74, "trivial_groupoid": 91, "groups_pairs": 80,
                   "verify": 90}

SANITY_FIGURES = ("L_evals_per_junction", "jacobians_per_junction",
                  "direct_junction_ms", "matched_junction_ms")
# ROADMAP baseline of the default configs at 20 steps
SANITY_BASELINE = {"sl2c": {"L_evals_per_junction": 44968 / 19,
                            "jacobians_per_junction": 3.0},
                   "trivial_groupoid": {"L_evals_per_junction": 27132 / 19,
                                        "jacobians_per_junction": 4.0}}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker(mode, workload, seed, seconds, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--mode", mode]
    env = dict(os.environ, **PIN)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the %s run" % mode)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values_ms, percentile):
    """Request time at ``percentile`` (linear interpolation) and the number
    of requests beyond it."""
    value = statistics.quantiles(values_ms, n=100,
                                 method="inclusive")[percentile - 1]
    return value, sum(v > value for v in values_ms)


def host_factor(run):
    """How much slower than the reference host this run's host ran: the
    median reference-kernel time of the run over REFERENCE_MS."""
    return statistics.median(run["ref_s"]) * 1e3 / calibrate.REFERENCE_MS


def scaled_ms(run):
    """Request wall times in ms at reference host speed."""
    factor = host_factor(run)
    return [t * 1e3 / factor for t in run["request_s"]]


def junction_ms(run):
    """Timed wall time per junction solved, at reference host speed."""
    return (run["elapsed_s"] * 1e3 / max(run["junctions"], 1)
            / host_factor(run))


def end_to_end(run, setups, percentile):
    req_ms = scaled_ms(run)
    value, beyond = tail(req_ms, percentile)
    attempted = run["attempted"]
    return {
        "junction_ms": junction_ms(run),
        "request_ms_p50": statistics.median(req_ms),
        "request_ms_tail": value,
        "success_frac": (attempted - run["failed"]) / attempted,
        "setup_s": statistics.median(setups) / host_factor(run),
        "peak_rss_mb": run["peak_rss_mb"],
    }, beyond


def layer_values(plain, run):
    """Per-layer figures of a traced run, plus the tracing overhead against
    the untraced run beside it and the counter-sanity figures."""
    values = dict(run["layers"])
    traced_ms = junction_ms(run)
    plain_ms = junction_ms(plain)
    values["trace.host_factor"] = host_factor(run)
    values["trace.junction_ms"] = traced_ms
    values["trace.untraced_junction_ms"] = plain_ms
    values["trace.overhead_ratio"] = traced_ms / plain_ms
    values["trace.spans_per_junction"] = run["spans"] / max(run["junctions"],
                                                            1)
    for scenario, s in run["sanity"].items():
        for k in SANITY_FIGURES:
            values["sanity.%s.%s" % (scenario, k)] = s[k]
    return values


def report_header(args, runs):
    pin = " ".join("%s=%s" % kv for kv in sorted(PIN.items()))
    print("matchdyn bench: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: nproc=%d, %s, one client, closed loop"
          % (os.cpu_count() or 0, pin))
    first = next(iter(runs.values()))
    print("inputs: %s" % json.dumps(first["summary"], sort_keys=True))
    for name, run in runs.items():
        print("%s: %d requests attempted, %d failed, %d junctions in %.3f s "
              "timed (raw %.3f ms/junction; host ran %.2fx the reference "
              "kernel time)"
              % (name, run["attempted"], run["failed"], run["junctions"],
                 run["elapsed_s"],
                 run["elapsed_s"] * 1e3 / max(run["junctions"], 1),
                 host_factor(run)))
        for line in run["failures"]:
            print("FAILED %s" % line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error: subprocess.run then kills the worker it
    # is waiting on and waits for it to end
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "matchdyn",
                                       "__init__.py")):
        print("bench: no matchdyn sources under %s" % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.trace == 0:
            setups = [worker("setup", args.workload, args.seed, 0,
                             deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            run = worker("untraced", args.workload, args.seed, args.seconds,
                         deadline)
            setups.append(run["setup_s"])
            runs = {"untraced": run}
        else:
            half = args.seconds / 2.0
            plain = worker("untraced", args.workload, args.seed, half,
                           deadline)
            run = worker("traced", args.workload, args.seed, half, deadline)
            runs = {"untraced": plain, "traced": run}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    report_header(args, runs)
    if runs["untraced"]["wrappers_installed"]:
        print("bench: untraced run had %d wrappers installed"
              % runs["untraced"]["wrappers_installed"], file=sys.stderr)
        return 1
    if args.trace == 0:
        p = TAIL_PERCENTILE[args.workload]
        values, beyond = end_to_end(run, setups, p)
        print("request_ms_tail is p%d of %d requests (%d beyond it); setup_s "
              "is the median of %s s (raw) over the host factor"
              % (p, len(run["request_s"]), beyond,
                 ", ".join("%.3f" % s for s in setups)))
        specs = spec["end_to_end"]
    else:
        values = layer_values(plain, run)
        print("tracing overhead: traced %.3f ms/junction / untraced %.3f "
              "= %.3f" % (values["trace.junction_ms"],
                          values["trace.untraced_junction_ms"],
                          values["trace.overhead_ratio"]))
        print("spans kept in %s" % run["trace_file"])
        for scenario, s in sorted(run["sanity"].items()):
            base = SANITY_BASELINE[scenario]
            same = all(math.isclose(s[k], base[k], rel_tol=1e-12)
                       for k in base)
            print("sanity %s @20 steps: %d L evals / %d junctions = %.4f, "
                  "%d Jacobians = %.4f per junction, direct %.3f ms + "
                  "matched %.3f ms per junction; ROADMAP baseline %s"
                  % (scenario, s["L_evals_total"], s["junctions"],
                     s["L_evals_per_junction"], s["jacobians_total"],
                     s["jacobians_per_junction"], s["direct_junction_ms"],
                     s["matched_junction_ms"],
                     "reproduced" if same else "NOT reproduced"))
        specs = spec["per_layer"]

    metrics = {}
    for m in specs:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-55s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in runs.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
