"""Command-line interface.

Exit codes: 0 all checks pass, 1 at least one check failed tolerance or had
no sample point left after the exclusions, 2 input/schema error (including a
scenario file that cannot be read or decoded as UTF-8, a report that cannot be
written, and a number that is NaN or infinite), 3 singularity under --strict.
An --out path that is a directory or lies in a missing directory is rejected
before anything runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import PbhError, SchemaError, SingularityError
from .scenarios import BUILTIN_TEMPLATES, Scenario, builtin, load_scenario, run, sweep

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_SINGULAR = 3


def _parse_set(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise SchemaError("params", f"--set expects name=value, got {item!r}")
        name, _, raw = item.partition("=")
        try:
            out[name.strip()] = float(raw)
        except ValueError:
            raise SchemaError("params", f"--set value for {name!r} is not a number") from None
    return out


def _load(spec: str) -> Scenario:
    if os.path.exists(spec):
        return load_scenario(spec)
    return builtin(spec)


def _check_out(out):
    """Reject an --out path that cannot take a report, before anything runs: a
    directory, or a path in a directory that does not exist. Creates nothing."""
    if not out:
        return
    if os.path.isdir(out):
        raise SchemaError("--out", f"{out!r} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise SchemaError("--out", f"{parent!r} is not an existing directory")


def _print(*args, end="\n"):
    """print, flushed; once the reader has closed stdout, output goes to os.devnull."""
    try:
        print(*args, end=end, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_report(report, out, fmt):
    text = report.to_csv() if fmt == "csv" else report.to_json()
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError("--out", f"cannot write the report: {exc}") from exc
    else:
        _print(text, end="")


def _cmd_builtin(args) -> int:
    for name, desc in BUILTIN_TEMPLATES.items():  # the only action is "list"
        _print(f"{name:30s} {desc}")
    return EXIT_PASS


def _cmd_run(args) -> int:
    _check_out(args.out)
    scenario = _load(args.scenario)
    overrides = _parse_set(args.set)
    if args.p is not None:
        overrides["p"] = args.p
    report = run(scenario, overrides=overrides, tolerance=args.tol, strict=args.strict)
    summary = report.summary()
    for check, entry in sorted(summary["checks"].items()):
        status = "pass" if entry["pass"] else "FAIL"
        rows = [r for r in report.rows if r.check == check]
        nan_rows = sum(math.isnan(r.residual) for r in rows)
        nan_note = f", {nan_rows} of {len(rows)} rows NaN" if nan_rows else ""
        _print(f"{scenario.name}: {check}: {status} "
              f"(max residual {entry['max_residual']:.3e}{nan_note})")
    _print(f"{scenario.name}: verdict {summary['verdict']}")
    if args.out or args.format:
        _write_report(report, args.out, args.format or "csv")
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    scenario = _load(args.scenario)
    overrides = _parse_set(args.set)
    result = sweep(scenario, args.param, args.from_, args.to, args.steps,
                   overrides=overrides, tolerance=args.tol, strict=args.strict)
    for crossing in result.crossings:
        _print(f"{scenario.name}: {crossing['check']}: signed residual crosses zero "
              f"at {args.param} = {crossing['value']!r}")
    if not result.crossings:
        _print(f"{scenario.name}: no sign crossings detected")
    ok = all(rep.verdict for rep in result.reports)
    if args.out or args.format:
        _write_report(result, args.out, args.format or "csv")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify_paper(_args) -> int:
    from .verify import run_all
    ok, _results = run_all(emit=_print)
    return EXIT_PASS if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbh",
        description="Verification engine for p-harmonic / p-biharmonic map and "
                    "submanifold identities and stress p-bienergy tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_builtin = sub.add_parser("builtin", help="inspect built-in scenarios")
    p_builtin.add_argument("action", choices=["list"])
    p_builtin.set_defaults(func=_cmd_builtin)

    def common(p):
        p.add_argument("scenario", help="scenario JSON path or builtin name like 'inversion(3)'")
        p.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="override a parameter (repeatable)")
        p.add_argument("--tol", type=float, default=None, help="override tolerance")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument("--strict", action="store_true",
                       help="abort on singular sample points")

    p_run = sub.add_parser("run", help="run a scenario's checks")
    common(p_run)
    p_run.add_argument("--p", type=float, default=None, help="set the exponent p")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run checks over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", dest="from_", type=float, default=None)
    p_sweep.add_argument("--to", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify-paper",
                              help="run the full acceptance suite and report per criterion")
    p_verify.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SingularityError as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PbhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
