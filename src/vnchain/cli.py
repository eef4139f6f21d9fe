"""Command-line scenario runner and property-suite driver.

Exit codes: 0 success, 1 validation/usage error (an allocation that does
not fit in memory included), 2 numerical or suite failure (a Monte Carlo
``ensemble_update`` that accepts no sample, and a conditioning event of
zero probability, included).  ``run --tol`` sets the pass tolerance of
the report's check lines; the library's own checks read
``vnchain.tolerances.DEFAULT``.  A ``verify`` suite that raises is
reported as a failing row whose note names the exception, and one that
skips every case as a failing row with ``cases=0``; either residual is
infinite (``null`` in JSON).  A NaN residual fails its row too (``nan``,
and ``null`` in JSON).
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import sys
from pathlib import Path

from .errors import UndefinedConditionalError, ZeroSampleError
from .scenarios import (
    RunOptions,
    ScenarioError,
    builtin_document,
    builtin_names,
    load_builtin,
    parse_scenario,
    run,
)
from .suites import CORRUPT_MODES, run_suites


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


# Fixed configuration: built on the first ``main`` call and shared by every
# later one in the process; each ``parse_args`` returns a fresh namespace.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="vnchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file or builtin")
    p_run.add_argument("scenario", help="path to a scenario document or a builtin name")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p_run.add_argument("--dump-states", action="store_true")
    p_run.add_argument(
        "--tol", type=float, default=RunOptions.tolerance, help="report tolerance"
    )

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--dims",
        default="4,6",
        metavar="A,B",
        help="max object dim A and max instrument dim B (grid starts at 2)",
    )
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--corrupt", choices=CORRUPT_MODES, default=None)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_scen = sub.add_parser("scenarios", help="builtin scenario utilities")
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list builtin scenarios")

    p_emit = sub.add_parser("emit", help="print a builtin scenario document")
    p_emit.add_argument("name")

    return parser


# The errors of a path that ``Path.exists`` takes for no file.
_NO_FILE = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))


def _cmd_run(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError(f"--tol must be a finite number >= 0; got {args.tol!r}")
    name_or_path = args.scenario
    if name_or_path in builtin_names():
        scenario = load_builtin(name_or_path)
    else:
        # One read and no stat.  A directory, a name with a null byte, and a
        # read that fails with an error of ``_NO_FILE`` name no file, as
        # ``Path.exists`` and ``Path.is_dir`` would find; any other failed
        # read is a read error.
        try:
            text = None if "\0" in name_or_path else Path(name_or_path).read_text()
        except OSError as exc:
            if not (isinstance(exc, IsADirectoryError) or exc.errno in _NO_FILE):
                reason = exc.strerror or exc
                print(f"error: cannot read {name_or_path!r}: {reason}", file=sys.stderr)
                return 1
            text = None
        if text is None:
            print(
                f"error: {name_or_path!r} is neither a builtin scenario nor a file",
                file=sys.stderr,
            )
            return 1
        scenario = parse_scenario(text)
    options = RunOptions(seed=args.seed, tolerance=args.tol, dump_states=args.dump_states)
    report = run(scenario, options)
    sys.stdout.write(report.render(args.format))
    return 0 if report.passed else 2


def _cmd_verify(args) -> int:
    try:
        max_obj, max_instr = (int(x) for x in args.dims.split(","))
    except ValueError:
        raise _UsageError(f"--dims expects two integers like 4,6; got {args.dims!r}")
    if max_obj < 2 or max_instr < 2:
        raise _UsageError("--dims values must be >= 2")
    if args.trials < 0:
        raise _UsageError("--trials must be >= 0")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if args.trials == 0:
        print("warning: trials=0, no suites executed", file=sys.stderr)
        if args.format == "json":
            print(json.dumps({"suites": [], "passed": True}, sort_keys=True))
        else:
            print("verify: PASS (0 suites)")
        return 0
    results = run_suites(
        max_object_dim=max_obj,
        max_instrument_dim=max_instr,
        trials=args.trials,
        seed=args.seed,
        corrupt=args.corrupt,
    )
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        tree = {
            "suites": [
                {
                    "name": r.name,
                    "cases": r.cases,
                    "max_residual": r.max_residual if math.isfinite(r.max_residual) else None,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in results
            ],
            "passed": not failed,
        }
        print(json.dumps(tree, indent=2, sort_keys=True))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else f"FAIL  {r.note}".rstrip()
            print(
                f"{r.name.ljust(width)}  cases={r.cases:<5d} "
                f"max_residual={r.max_residual:.6e}  tol={r.tolerance:.1e}  {status}"
            )
        if failed:
            print(f"verify: FAIL ({len(failed)}/{len(results)} suites failed)")
        else:
            print(f"verify: PASS ({len(results)} suites)")
    return 0 if not failed else 2


def _cmd_scenarios_list() -> int:
    for name in builtin_names():
        doc = builtin_document(name)
        dims = "x".join(str(d) for _, d in doc["subsystems"])
        analyses = ",".join(
            a if isinstance(a, str) else a["kind"] for a in doc["analyses"]
        )
        print(f"{name:<16} dims={dims:<8} stages={len(doc['stages'])} analyses={analyses}")
    return 0


def _cmd_emit(args) -> int:
    doc = builtin_document(args.name)
    print(json.dumps(doc, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "scenarios":
            return _cmd_scenarios_list()
        if args.command == "emit":
            return _cmd_emit(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except (UndefinedConditionalError, ZeroSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
