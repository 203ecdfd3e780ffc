"""Command line entry point.

Subcommands:
  run            solve a scenario from an INI config and emit a CSV trajectory
  check axioms   run the randomized axiom suites
  check residual re-verify an emitted trajectory file
  export         run a scenario and write the report as JSON

Exit codes: 0 pass, 1 verification or solver failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="matchdyn",
        description="Discrete Euler-Lagrange dynamics on groupoids and "
                    "matched-pair groups.")
    sub = parser.add_subparsers(dest="command")

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

    checkp = sub.add_parser("check", help="verification suites")
    checksub = checkp.add_subparsers(dest="what")
    axp = checksub.add_parser("axioms", help="randomized axiom suites")
    axp.add_argument("--seed", type=int, default=0)
    axp.add_argument("--samples", type=int, default=200)
    axp.add_argument("--tol", type=float, default=1e-9)
    resp = checksub.add_parser("residual",
                               help="re-verify a trajectory file")
    resp.add_argument("trajectory", help="CSV file emitted by run")

    exp = sub.add_parser("export", help="run a scenario and write the "
                                        "report as JSON")
    exp.add_argument("scenario", nargs="?", choices=SCENARIOS)
    add_config_flags(exp)
    exp.add_argument("--report", help="path for the JSON report "
                                      "(default: stdout)")
    return parser


def _load_config(args):
    if args.config:
        config = ScenarioConfig.from_ini(args.config)
    elif args.scenario:
        config = ScenarioConfig(args.scenario)
    else:
        raise DomainError("either a scenario id or --config is required")
    return dataclasses.replace(config, **{
        key: getattr(args, key) for key in ("steps", "tol", "out")
        if getattr(args, key) is not None})


def _cmd_run(args):
    config = _load_config(args)
    report, header, rows = run_scenario(config)
    out = config.out or (config.scenario + ".csv")
    write_trajectory_csv(out, config, header, rows)
    print("wrote %s (%d arrows)" % (out, len(rows)))
    worst = max(report.residual_norms, default=0.0)
    print("max residual norm: %.3e" % worst)
    if report.oracle_max is not None:
        print("variational oracle max: %.3e" % report.oracle_max)
    if report.formula_gap is not None:
        print("closed-vs-generic residual gap: %.3e" % report.formula_gap)
    if report.correspondence_gap is not None:
        print("correspondence gap: %.3e" % report.correspondence_gap)
    ok = worst <= max(config.tol, 1e-9)
    if report.oracle_max is not None:
        ok = ok and report.oracle_max <= 1e-6
    return 0 if ok else 1


def _cmd_check_axioms(args):
    ok, report = run_axiom_suites(seed=args.seed, n_samples=args.samples,
                                  tol=args.tol)
    for key in sorted(report):
        print("%-45s %.3e" % (key, report[key]))
    print("axiom suites:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_check_residual(args):
    ok, report = check_residual_file(args.trajectory)
    worst = max(report.residual_norms, default=0.0)
    print("recomputed %d residuals, max %.3e" % (len(report.residual_norms),
                                                 worst))
    if report.correspondence_gap is not None:
        print("stored-vs-recomputed gap: %.3e" % report.correspondence_gap)
    if report.oracle_max is not None:
        print("variational oracle max: %.3e" % report.oracle_max)
    print("trajectory check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


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
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            if args.what == "axioms":
                return _cmd_check_axioms(args)
            if args.what == "residual":
                return _cmd_check_residual(args)
            print("usage: matchdyn check {axioms,residual} ...",
                  file=sys.stderr)
            return 2
        if args.command == "export":
            return _cmd_export(args)
        parser.print_usage(sys.stderr)
        return 2
    except MatchdynError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
