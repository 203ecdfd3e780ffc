"""Command line entry point.

Subcommands:
  run            solve a scenario from an INI config and emit a CSV trajectory
  check axioms   run the randomized axiom suites
  check residual re-verify an emitted trajectory file
  export         run a scenario and write the report as JSON

Exit codes: 0 pass, 1 verification or solver failure, 2 usage or config error.
A failed verdict prints one ``FAIL:`` line per bound broken on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .errors import DomainError, MatchdynError
from .scenarios import (
    ScenarioConfig,
    SCENARIOS,
    check_residual_file,
    run_axiom_suites,
    run_scenario,
    write_trajectory_csv,
)


@functools.cache
def _build_parser():
    """The one parser of this process, built on the first ``main`` call:
    ``parse_args`` leaves it as it was, and argparse looks up sys.stdout,
    sys.stderr and the terminal width only when it prints."""
    parser = argparse.ArgumentParser(
        prog="matchdyn",
        description="Discrete Euler-Lagrange dynamics on groupoids and "
                    "matched-pair groups.")
    sub = parser.add_subparsers(required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--steps", type=int, help="override the step count")
        p.add_argument("--out", help="override the output path")
        p.add_argument("--tol", type=float, help="override the tolerance")

    runp = sub.add_parser("run", help="solve a scenario and write a "
                                      "trajectory CSV")
    runp.add_argument("scenario", nargs="?", choices=SCENARIOS,
                      help="scenario id when no config file is given")
    add_config_flags(runp)
    runp.set_defaults(func=_cmd_run)

    checkp = sub.add_parser("check", help="verification suites")
    checksub = checkp.add_subparsers(required=True)
    axp = checksub.add_parser("axioms", help="randomized axiom suites")
    axp.add_argument("--seed", type=int, default=0)
    axp.add_argument("--samples", type=int, default=200)
    axp.add_argument("--tol", type=float, default=1e-9)
    axp.set_defaults(func=_cmd_check_axioms)
    resp = checksub.add_parser("residual",
                               help="re-verify a trajectory file")
    resp.add_argument("trajectory", help="CSV file emitted by run")
    resp.set_defaults(func=_cmd_check_residual)

    exp = sub.add_parser("export", help="run a scenario and write the "
                                        "report as JSON")
    exp.add_argument("scenario", nargs="?", choices=SCENARIOS)
    add_config_flags(exp)
    exp.add_argument("--report", help="path for the JSON report "
                                      "(default: stdout)")
    exp.set_defaults(func=_cmd_export)
    return parser


def _load_config(args):
    if args.config:
        config = ScenarioConfig.from_ini(args.config)
        if args.scenario not in (None, config.scenario):
            raise DomainError("scenario %s contradicts --config %s (%s)" % (
                args.scenario, args.config, config.scenario))
    elif args.scenario:
        config = ScenarioConfig(args.scenario)
    else:
        raise DomainError("either a scenario id or --config is required")
    overrides = {key: getattr(args, key) for key in ("steps", "tol", "out")
                 if getattr(args, key) is not None}
    # replace validates the whole config again: only when a flag changed it
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_run(args):
    config = _load_config(args)
    report, header, rows = run_scenario(config)
    out = config.out or (config.scenario + ".csv")
    write_trajectory_csv(out, config, header, rows)
    print("wrote %s (%d arrows)" % (out, len(rows)))
    print("max residual norm: %.3e" % report.max_residual)
    if report.oracle_max is not None:
        print("variational oracle max: %.3e" % report.oracle_max)
    if report.correspondence_gap is not None:
        print("correspondence gap: %.3e" % report.correspondence_gap)
    return _verdict(report.failures(config.tol))


def _cmd_check_axioms(args):
    ok, report = run_axiom_suites(seed=args.seed, n_samples=args.samples,
                                  tol=args.tol)
    for key in sorted(report):
        print("%-45s %.3e" % (key, report[key]))
    print("axiom suites:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_check_residual(args):
    failures, report = check_residual_file(args.trajectory)
    print("recomputed %d residuals, max %.3e" % (len(report.residual_norms),
                                                 report.max_residual))
    if report.reproduce_gap is not None:
        print("stored-vs-recomputed gap: %.3e" % report.reproduce_gap)
    if report.oracle_max is not None:
        print("variational oracle max: %.3e" % report.oracle_max)
    print("trajectory check:", "FAIL" if failures else "pass")
    return _verdict(failures)


def _cmd_export(args):
    config = _load_config(args)
    report, header, rows = run_scenario(config)
    if config.out:
        write_trajectory_csv(config.out, config, header, rows)
    text = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
        print("wrote %s" % args.report)
    else:
        print(text)
    return _verdict(report.failures(config.tol))


def _verdict(failures):
    """Exit code of ``run``, ``export`` and ``check residual``."""
    for line in failures:
        print("FAIL: %s" % line, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MatchdynError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
