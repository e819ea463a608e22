"""repro.lint — determinism & simulation-purity static analysis.

The repo's headline guarantees — byte-identical trade orderings,
``jobs=N == jobs=1`` digest equality, replayable chaos runs — rest on
invariants no test can enforce directly: no wall-clock reads, no ambient
RNG, no unordered iteration feeding digests, nothing unpicklable at the
process boundary.  This package enforces them *statically*, with a
custom AST visitor framework and a registry of DBO1xx rules (no
third-party lint dependencies).

Usage::

    repro lint                       # gate: src/ benchmarks/ examples/
    repro lint --json                # machine-readable report
    repro lint --list-rules          # every rule code with its summary
    repro lint --select DBO103 src   # one rule, one tree

Per-line suppression::

    stamp = a.response_time == b.response_time  # dbo: ignore[DBO107]

Rule codes: DBO101 wall clocks · DBO102 ambient random · DBO103
unordered iteration in digest-sensitive modules · DBO104 unpicklable
values at the process boundary · DBO105 scheduler-internal access ·
DBO106 mutable defaults · DBO107 float equality on simulated time ·
DBO108 swallowing broad excepts · DBO109 RNG construction outside
Runtime substreams.  (DBO100 is reserved for unparsable files.)

The rule → invariant mapping is documented in ``docs/architecture.md``
("Static guarantees").
"""

from repro.lint.findings import Finding, sort_key
from repro.lint.report import exit_code, render_json, render_text
from repro.lint.rules import REGISTRY, all_rules, rule_codes
from repro.lint.runner import (
    LintRun,
    LintUsageError,
    iter_python_files,
    lint_paths,
    lint_source,
)
from repro.lint.suppressions import collect_suppressions
from repro.lint.visitor import ModuleContext, Rule

__all__ = [
    "Finding",
    "sort_key",
    "Rule",
    "ModuleContext",
    "REGISTRY",
    "all_rules",
    "rule_codes",
    "LintRun",
    "LintUsageError",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "collect_suppressions",
    "render_text",
    "render_json",
    "exit_code",
]
