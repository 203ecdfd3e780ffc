"""One workload in one process: set up, optionally trace, run the timed
closed loop, gate every result, and print one JSON line of raw figures.

    python3 bench/worker.py --workload W --seed N --seconds S \
        --mode {setup,untraced,traced} --t0 MONOTONIC

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start and imports.  run.py starts
this script with BLAS pinned to one thread and turns its output into the
benchmark's metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# siblings are imported by path, also where Python leaves the script's
# directory off sys.path (PYTHONSAFEPATH)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# timed seconds between two samples of the reference kernel
REF_EVERY_S = 0.1


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "matchdyn", "__init__.py")):
        raise SystemExit("bench: no matchdyn sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import matchdyn
    import matchdyn.cli  # not imported by the package itself
    if not os.path.abspath(matchdyn.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported matchdyn from %s, not %s"
                         % (matchdyn.__file__, SRC))
    return matchdyn


def timed_loop(inputs, seconds, tracer=None):
    """Closed loop, one client: requests back to back in pool order, whole
    passes over the pool, and another pass only while it is expected to fit
    in ``seconds``.  Gates run between requests, outside the timings, and so
    does the reference kernel, sampled after every REF_EVERY_S of timed
    work."""
    times = []
    ref = [calibrate.sample()]
    since_ref = 0.0
    junctions = 0
    attempted = failed = 0
    failures = []
    elapsed = 0.0
    while True:
        pass_start = elapsed
        for req in inputs.requests:
            attempted += 1
            if tracer is not None:
                tracer.enabled = True
            t = time.perf_counter()
            try:
                payload = req.call()
                error = None
            except Exception as exc:  # a failed request is counted, not fatal
                payload, error = None, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.enabled = False
            elapsed += dt
            times.append(dt)
            since_ref += dt
            if since_ref >= REF_EVERY_S:
                ref.append(calibrate.sample())
                since_ref = 0.0
            if error is None:
                try:
                    error = req.gate(payload)
                except Exception as exc:
                    error = "gate %s: %s" % (type(exc).__name__, exc)
            if error is None:
                junctions += req.junctions
            else:
                failed += 1
                failures.append("%s: %s" % (req.label, error))
        if elapsed + (elapsed - pass_start) > seconds:
            break
    return {"request_s": times, "ref_s": ref, "junctions": junctions,
            "elapsed_s": elapsed, "attempted": attempted, "failed": failed,
            "failures": failures}


def untimed_checks(inputs):
    attempted = failed = 0
    failures = []
    for req in inputs.untimed:
        attempted += 1
        try:
            error = req.gate(req.call())
        except Exception as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failed += 1
            failures.append("%s: %s" % (req.label, error))
    return attempted, failed, failures


def sanity_counts(md, tracer):
    """Counters of the two default configs at 20 steps, traced through the
    CLI: L evaluations and Jacobians per junction, and the direct-vs-matched
    split of trivial_groupoid."""
    out = {}
    for scenario in ("sl2c", "trivial_groupoid"):
        tracer.reset()
        tracer.enabled = True
        try:
            junctions = workloads.default_run(md, scenario)
        finally:
            tracer.enabled = False
        m = tr.layer_metrics(tracer.spans, tracer.counters, junctions, 1,
                             len(tracer.gradient_points))
        out[scenario] = {
            "L_evals_total": tracer.counters["L_evals"],
            "jacobians_total": tracer.counters["jacobians"],
            "junctions": junctions,
            "L_evals_per_junction": m["dynamics.L_evals_per_junction"],
            "jacobians_per_junction": m["numerics.jacobians_per_junction"],
            "direct_junction_ms": m["scenarios.direct_junction_ms"],
            "matched_junction_ms": m["scenarios.matched_junction_ms"],
        }
    tracer.reset()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    md = _import_package()
    tracer = None
    if args.mode == "traced":
        tracer = tr.Tracer()
        tracer.install(md)
    # a fresh directory per process: a run killed before its clean-up must
    # not collide with a later one
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-s%d-" % (args.workload, args.seed),
                            dir=base)
    os.chdir(work)
    try:
        inputs = workloads.generate(md, args.workload, args.seed)
        warm = inputs.warmup
        error = warm.gate(warm.call())
        if error is not None:
            raise SystemExit("bench: warm-up request failed: %s" % error)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s,
                  "wrappers_installed": tr.count_wrappers(md)}
        if args.mode != "setup":
            if tracer is not None:
                result["sanity"] = sanity_counts(md, tracer)
            result.update(timed_loop(inputs, args.seconds, tracer))
            n, bad, why = untimed_checks(inputs)
            result["attempted"] += n
            result["failed"] += bad
            result["failures"] += why
            result["summary"] = inputs.summary
            if tracer is not None:
                result["layers"] = tr.layer_metrics(
                    tracer.spans, tracer.counters, result["junctions"],
                    len(result["request_s"]), len(tracer.gradient_points))
                result["spans"] = len(tracer.spans)
                trace_path = os.path.join(
                    ROOT, ".bench_work", "trace-%s-s%d.jsonl"
                    % (args.workload, args.seed))
                tracer.write(trace_path)
                result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
