"""Argument plumbing for the analyzer, shared by two entry points.

``repro lint ...`` (the main CLI subcommand) and ``python -m repro.lint
...`` (skips the full CLI import; the parent ``repro`` package init
still runs, so numpy must be importable) parse the same flags and run
the same :func:`run_lint`.  The analyzer itself is pure stdlib — every
module under ``repro.lint`` imports only :mod:`ast`, :mod:`tokenize`
and friends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.lint.report import exit_code, render_json, render_text
from repro.lint.rules import all_rules
from repro.lint.runner import LintUsageError, lint_paths

__all__ = ["add_lint_arguments", "run_lint", "main"]

_DEFAULT_TREES = ("src", "benchmarks", "examples")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` flags to a parser (sub- or standalone)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/directories to lint (default: src benchmarks examples)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="anchor for repo-relative finding paths",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (e.g. DBO101,DBO103)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule code with its summary and exit",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0

    paths: Optional[List[str]] = list(args.paths or [])
    if not paths:
        paths = [
            os.path.join(args.root, name)
            for name in _DEFAULT_TREES
            if os.path.isdir(os.path.join(args.root, name))
        ]
        if not paths:
            print("repro lint: nothing to lint under --root", file=sys.stderr)
            return 2
    select = args.select.split(",") if args.select else None
    try:
        run = lint_paths(paths, root=args.root, select=select)
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(render_json(run), indent=2, sort_keys=True))
    else:
        print(render_text(run))
    return exit_code(run.findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.lint`` — the gate without the simulation stack."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="determinism & simulation-purity static analysis (DBO1xx rules)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
