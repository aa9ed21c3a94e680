"""Command line entry point.

Two subcommands:

  sheafforms run <scenario.json> [--seed N] [--out PATH]
  sheafforms oracle <suite> [--seed N] [--max-rank N] [--cases N]
                            [--field rationals|gf:p] [--out PATH]

Exit codes: 0 when every task (or the whole suite) checks out, 1 when any
task reports a violation or a counterexample is found, or when a self-check
of the library fails outside a task (`SelfCheckFailed`, printed with its
message), 2 on malformed input or when the report cannot be written to
--out.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ParseError, SelfCheckFailed, SheafFormsError, UnknownSuite
from .fields import field_from_name
from .scenario import (
    ENV_FIELD,
    SUITES,
    load_scenario,
    oracle_report,
    report_to_json,
    run_scenario,
)


def _emit(report: dict, out_path) -> int:
    """Print the report, write it to `out_path` if given; the exit code."""
    text = report_to_json(report)
    print(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write --out {out_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if report["ok"] else 1


def _cmd_run(args) -> int:
    try:
        report = run_scenario(load_scenario(args.scenario), seed=args.seed)
    except ParseError as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2
    return _emit(report, args.out)


def _cmd_oracle(args) -> int:
    field_name = args.field or os.environ.get(ENV_FIELD, "rationals")
    bounds = {}
    if args.max_rank is not None:
        bounds["max_rank"] = args.max_rank
    if args.cases is not None:
        bounds["cases"] = args.cases
    try:
        field = field_from_name(field_name)
        report = oracle_report(args.suite, args.seed, field, bounds)
    except (ParseError, UnknownSuite) as exc:
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2
    return _emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafforms",
        description="Exact symplectic and orthogonal geometry over finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="also write the report here")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="run one oracle suite")
    p_oracle.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--max-rank", type=int, default=None)
    p_oracle.add_argument("--cases", type=int, default=None)
    p_oracle.add_argument("--field", default=None, help="rationals or gf:p")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SelfCheckFailed as exc:
        # a defect of the library, not of the input
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except SheafFormsError as exc:
        # anything not already mapped is a malformed-input failure
        print(f"{exc.code}: {exc.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
