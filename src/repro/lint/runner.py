"""Orchestration: discover files, lint each, collect the findings.

The entry point is :func:`lint_paths`; the CLI subcommand and the test
suite both go through it.  File discovery is sorted and
``__pycache__``-free so a run's output depends only on tree *content*,
never on filesystem iteration order.

Paths inside findings are reported relative to ``root`` with forward
slashes, so a report reads the same on any machine (and on CI)
regardless of the absolute checkout location.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.lint.findings import Finding, sort_key
from repro.lint.rules import REGISTRY, all_rules
from repro.lint.suppressions import collect_suppressions
from repro.lint.visitor import run_rules

__all__ = ["LintRun", "LintUsageError", "iter_python_files", "lint_source", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "node_modules"}


class LintUsageError(ValueError):
    """Invalid invocation (unknown rule code, missing path); CLI exit 2."""


@dataclass
class LintRun:
    """The outcome of one lint invocation: every (gate-tripping) finding,
    in canonical order."""

    findings: List[Finding] = field(default_factory=list)
    checked_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files or directories), sorted."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        if not os.path.isdir(path):
            raise LintUsageError(f"no such file or directory: {path!r}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return sorted(set(found))


def _relative(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # pragma: no cover - different drive on Windows
        rel = path
    return rel.replace(os.sep, "/")


def _validate_select(select: Optional[Iterable[str]]) -> Optional[FrozenSet[str]]:
    if select is None:
        return None
    chosen = frozenset(code.strip().upper() for code in select if code.strip())
    unknown = chosen - set(REGISTRY)
    if unknown:
        raise LintUsageError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    return chosen or None


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one in-memory module (the fixture-test workhorse)."""
    chosen = _validate_select(select)
    suppressions = collect_suppressions(source)
    findings, parse_error = run_rules(path, source, all_rules(), suppressions, chosen)
    if parse_error is not None:
        findings = [parse_error]
    return sorted(findings, key=sort_key)


def lint_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    select: Optional[Iterable[str]] = None,
) -> LintRun:
    """Lint every Python file under ``paths``.

    ``root`` anchors the repo-relative finding paths (defaults to the
    current working directory).
    """
    chosen = _validate_select(select)
    anchor = os.path.abspath(root or os.getcwd())
    run = LintRun()
    collected: List[Finding] = []
    for file_path in iter_python_files(paths):
        run.checked_files += 1
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        rel = _relative(os.path.abspath(file_path), anchor)
        suppressions = collect_suppressions(source)
        findings, parse_error = run_rules(
            rel, source, all_rules(), suppressions, chosen
        )
        if parse_error is not None:
            collected.append(parse_error)
        collected.extend(findings)
    run.findings = sorted(collected, key=sort_key)
    return run
