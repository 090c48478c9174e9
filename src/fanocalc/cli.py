"""Command-line verification runner.

Subcommands:

* ``list``  - print the built-in scenario names, one per line.
* ``run``   - run built-in scenarios (``--all`` or explicit names) and print
  a text or JSON report.
* ``check`` - parse scenario documents from files and run them.
* ``emit``  - pretty-print a built-in scenario in the scenario language.

Exit codes: 0 when every assertion passes, 1 when at least one assertion
fails, 2 for parse or usage errors (including unknown scenario names).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import dsl, scenarios

_USAGE_EXIT = 2


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description="Verify intersection-theoretic integer chains on Fano fourfolds.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub.add_parser("list", help="print built-in scenario names")

    run_p = sub.add_parser("run", help="run built-in scenarios")
    run_p.add_argument("names", nargs="*", metavar="NAME", help="scenario names to run")
    run_p.add_argument("--all", action="store_true", help="run every built-in scenario")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--verbose", action="store_true", help="include scenario notes")

    check_p = sub.add_parser("check", help="parse and run scenario files")
    check_p.add_argument("files", nargs="+", metavar="FILE")
    check_p.add_argument("--format", choices=("text", "json"), default="text")

    emit_p = sub.add_parser("emit", help="pretty-print a built-in scenario")
    emit_p.add_argument("name", metavar="NAME")

    return parser


def _report_exit(report: scenarios.Report, fmt: str, verbose: bool, out) -> int:
    if fmt == "json":
        out.write(report.to_json())
    else:
        out.write(report.to_text(verbose=verbose))
    return 0 if report.failed == 0 else 1


def _cmd_list(out) -> int:
    for scenario in scenarios.builtin_scenarios():
        out.write(scenario.name + "\n")
    return 0


def _cmd_run(args, out, err) -> int:
    if args.all and args.names:
        err.write("run: give scenario names or --all, not both\n")
        return _USAGE_EXIT
    if not args.all and not args.names:
        err.write("run: nothing to run; give scenario names or --all\n")
        return _USAGE_EXIT
    builtins = {s.name: s for s in scenarios.builtin_scenarios()}
    if args.all:
        chosen = builtins
    else:
        chosen = {}
        for name in args.names:
            if name not in builtins:
                err.write(f"run: unknown scenario {name!r}\n")
                return _USAGE_EXIT
            if name in chosen:
                err.write(f"run: scenario {name!r} given twice\n")
                return _USAGE_EXIT
            chosen[name] = builtins[name]
    return _report_exit(scenarios.run(list(chosen.values())), args.format, args.verbose, out)


def _cmd_check(args, out, err) -> int:
    collected, names = [], set()  # a scenario name is unique across the files, as within one
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                source = handle.read()
        except OSError as exc:
            err.write(f"check: cannot read {path}: {exc.strerror or exc}\n")
            return _USAGE_EXIT
        except UnicodeDecodeError as exc:
            err.write(f"check: {path}: {exc}\n")
            return _USAGE_EXIT
        try:
            document = dsl.parse(source)
            for node in document.scenarios:
                dsl.claim_name(names, node)
            collected.extend(document.build())
        except dsl.ParseError as exc:
            err.write(f"check: {path}: {exc}\n")
            return _USAGE_EXIT
    return _report_exit(scenarios.run(collected), args.format, False, out)


def _cmd_emit(args, out, err) -> int:
    source = scenarios.BUILTIN_SOURCES.get(args.name)
    if source is None:
        err.write(f"emit: unknown scenario {args.name!r}\n")
        return _USAGE_EXIT
    out.write(dsl.parse(source).pretty())
    return 0


def main(argv: Optional[list] = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; normalize.
        code = exc.code if isinstance(exc.code, int) else _USAGE_EXIT
        return code
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args, out, err)
    if args.command == "check":
        return _cmd_check(args, out, err)
    if args.command == "emit":
        return _cmd_emit(args, out, err)
    parser.print_usage(err)
    return _USAGE_EXIT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
