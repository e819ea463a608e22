"""Reporters: stable text and JSON renderings of a lint run.

Both renderers consume a :class:`~repro.lint.runner.LintRun` and are
deterministic: findings arrive pre-sorted in canonical order, JSON is
dumped with sorted keys, and counts are derived — so the same tree
always produces the same bytes (a property the reporter tests pin).

Exit-code contract (``exit_code``):

* ``0`` — no findings;
* ``1`` — at least one finding (the CI gate trips);
* ``2`` — the run itself was invalid (unknown rule selection, missing
  paths); raised as ``LintUsageError`` by the runner, mapped in the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.lint.findings import Finding
from repro.lint.rules import REGISTRY

__all__ = ["render_text", "render_json", "exit_code"]


def exit_code(findings: List[Finding]) -> int:
    """0 when the gate passes, 1 when any finding remains."""
    return 1 if findings else 0


def _count_by_code(findings: List[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return dict(sorted(counts.items()))


def render_text(run: Any) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in run.findings]
    counts = _count_by_code(run.findings)
    summary = ", ".join(f"{code}×{n}" for code, n in counts.items()) or "none"
    lines.append(
        f"repro lint: {len(run.findings)} finding(s) "
        f"({summary}); {run.checked_files} file(s) checked"
    )
    return "\n".join(lines)


def render_json(run: Any) -> Dict[str, Any]:
    """The machine-readable document printed by ``repro lint --json``."""
    return {
        "version": 2,
        "checked_files": run.checked_files,
        "counts": _count_by_code(run.findings),
        "findings": [finding.to_dict() for finding in run.findings],
        "exit_code": exit_code(run.findings),
        "rules": {
            code: REGISTRY[code].summary for code in sorted(REGISTRY)
        },
    }
