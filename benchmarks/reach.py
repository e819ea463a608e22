"""Reach probe: which ``src/repro`` functions a user path calls.

Runs every CLI command at small size and every example under one
``sys.setprofile`` hook, then lists the functions defined in
``src/repro`` that no entry called, with their body lines (from the
first statement after the docstring to the last line, nested functions
counted once)::

    python benchmarks/reach.py            # summary
    python benchmarks/reach.py --list     # + each unreached function
    python benchmarks/reach.py --json

The probe under-counts reach: it runs neither ``benchmarks/`` nor the
tests, so a symbol only they use reads as unreached.  The rule it serves
keeps a symbol that a CLI command, an example, a scenario, a benchmark,
a claim row or the auditor reaches; grep ``benchmarks/`` before deleting
what it lists.  The entry list (``cli_entries`` plus the examples) only
grows: drop an entry and the counts stop being comparable across commits.

Runs in one process (``chaos-table`` without ``--jobs``), about 90 s on
a 2-CPU host; each entry's exit status goes to stderr, and a nonzero one
is not an error of the probe (some plans do not apply to some schemes).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
if str(SRC.parent) not in sys.path:
    sys.path.insert(0, str(SRC.parent))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

SCHEMES = ("direct", "cloudex", "fba", "libra", "dbo", "prob")
PLANS = (
    "ack-loss", "aggregator-crash", "ces-hiccup", "drift-storm", "dup-delivery",
    "gateway-stall", "latency-spike", "link-flaky", "ob-crash", "ob-failover",
    "partition", "rb-outage", "shard-crash", "shard-loss", "trace-storm",
)
SMALL = ("--participants", "4", "--duration", "3000", "--seed", "3")
# FBA's auction period is set so the entry runs the same on either side
# of a change to its default.
SCHEME_ARGS: Dict[str, Tuple[str, ...]] = {"fba": ("--batch-interval", "500")}
# A channel-addressed fault file (``chaos --faults PATH``).
FAULT_FILE = {
    "name": "channel-faults",
    "faults": [
        {"kind": "latency_degradation", "at": 600, "duration": 900, "channel": "fwd-mp0",
         "magnitude": 40.0},
        {"kind": "partition", "at": 1200, "duration": 300, "channel": "rev-mp1"},
    ],
}


def cli_entries(tmp: Path) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` per CLI entry point."""
    entries: List[Tuple[str, List[str]]] = []
    for scheme in SCHEMES:
        entries.append((f"run {scheme}", ["run", "--scheme", scheme, *SMALL, *SCHEME_ARGS.get(scheme, ())]))
    entries += [
        ("run shards", ["run", *SMALL[2:], "--participants", "8", "--ob-shards", "4"]),
        ("run tree", ["run", *SMALL[2:], "--participants", "8", "--agg-depth", "2", "--agg-fanout", "2"]),
        ("run sync", ["run", *SMALL, "--sync-c1", "30"]),
        ("run trace", ["run", *SMALL, "--scenario", "trace"]),
        ("run multizone", ["run", *SMALL, "--scenario", "multizone"]),
        ("run congested", ["run", *SMALL, "--scenario", "congested"]),
        ("run baremetal", ["run", *SMALL, "--scenario", "baremetal"]),
        ("run json save", ["run", *SMALL, "--json", "--save", str(tmp / "run.json")]),
        ("run reference", ["run", *SMALL, "--engine", "reference"]),
        ("compare", ["compare", *SMALL, "--schemes", *SCHEMES, "--batch-interval", "500"]),
        ("compare json", ["compare", *SMALL, "--json"]),
        ("sweep delta", ["sweep", "--participants", "3", "--duration", "2000", "--values", "10", "45"]),
        ("sweep tau", ["sweep", "--participants", "3", "--duration", "2000", "--param", "tau",
                       "--values", "10", "40"]),
        ("chaos-table", ["chaos-table", "--schemes", "direct", "dbo", "--plans", "partition",
                         "--seeds", "1", "--participants", "3", "--duration", "2500"]),
        ("chaos-table json", ["chaos-table", "--schemes", "fba", "--plans", "link-flaky",
                              "--seeds", "1", "--participants", "3", "--duration", "2500", "--json"]),
        ("lint", ["lint"]),
        ("lint json", ["lint", "--json"]),
        ("lint rules", ["lint", "--list-rules"]),
        ("reproduce", ["reproduce", "--quick", "--out", str(tmp / "reproduction")]),
        ("table", ["table", "2", "--duration", "2000"]),
        ("figure", ["figure", "11"]),
    ]
    for plan in PLANS:
        base = ["chaos", *SMALL, "--plan", plan]
        entries += [
            (f"chaos {plan}", base),
            (f"chaos {plan} supervise", [*base, "--supervise"]),
            (f"chaos {plan} retransmit", [*base, "--retransmit"]),
            (f"chaos {plan} prob", [*base, "--scheme", "prob"]),
        ]
    entries.append(("chaos faults file", ["chaos", *SMALL, "--faults", str(tmp / "faults.json"), "--json"]))
    entries.append(("lint write baseline", ["lint", "--write-baseline", "--baseline", str(tmp / "lint-baseline.json")]))
    return entries


def run_example(path: Path) -> None:
    """Run an example as ``python examples/<name>.py`` with no arguments."""
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv


def run_entries(tmp: Path) -> Tuple[Set[object], List[Tuple[str, int]]]:
    """Run every entry under the profile hook: the code objects called,
    and each entry's exit status.  The hook is on while ``repro`` is
    imported too: import-time calls (the scheme table's rows) are reach."""
    (tmp / "faults.json").write_text(json.dumps(FAULT_FILE), encoding="utf-8")
    called: Set[object] = set()
    add = called.add

    def hook(frame, event, arg):  # noqa: ARG001 - the profile signature
        if event == "call":
            add(frame.f_code)

    sys.setprofile(hook)
    try:
        from repro.cli import main
    finally:
        sys.setprofile(None)
    statuses: List[Tuple[str, int]] = []
    jobs = [(label, lambda argv=argv: main(argv)) for label, argv in cli_entries(tmp)]
    jobs += [(f"example {path.name}", lambda path=path: run_example(path)) for path in EXAMPLES]
    for label, job in jobs:
        sink = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = job()
        except SystemExit as stop:
            status = stop.code
        except Exception as error:  # an entry's crash is its status, not the probe's
            status = 1
            print(f"{label}: {error!r}", file=sys.stderr)
        finally:
            sys.setprofile(None)
        code = status if isinstance(status, int) else 0
        statuses.append((label, code))
        print(f"  {code:>3}  {label}", file=sys.stderr)
    return called, statuses


def _body_lines(node: ast.AST) -> Set[int]:
    body = node.body
    first = body[0]
    if (
        len(body) > 1
        and isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        first = body[1]
    return set(range(first.lineno, node.end_lineno + 1))


def defined_functions() -> Dict[Tuple[str, int], Tuple[str, Set[int]]]:
    """``(path, first line) → (qualified name, body lines)`` for every
    function in ``src/repro``.  The first line is the first decorator's,
    as in the function's code object."""
    functions: Dict[Tuple[str, int], Tuple[str, Set[int]]] = {}
    for path in sorted(SRC.resolve().rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    name = f"{prefix}{child.name}"
                    functions[(str(path), first)] = (f"{module}:{name}", _body_lines(child))
                    visit(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def measure() -> Dict[str, object]:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            called, statuses = run_entries(Path(tmp))
        finally:
            os.chdir(cwd)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    functions = defined_functions()
    unreached = {key: value for key, value in functions.items() if key not in reached}
    # A nested function's lines are its parent's too: count each once.
    body_lines = {(key[0], line) for key, (_, lines) in unreached.items() for line in lines}
    return {
        "entries": len(statuses),
        "entries_nonzero": [label for label, code in statuses if code != 0],
        "functions": len(functions),
        "unreached_functions": len(unreached),
        "unreached_body_lines": len(body_lines),
        "unreached": [
            {"function": name, "body_lines": len(lines)} for name, lines in sorted(unreached.values())
        ],
    }


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list every unreached function")
    parser.add_argument("--json", action="store_true", help="emit the full report as JSON")
    args = parser.parse_args(argv)
    report = measure()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"{report['unreached_functions']} of {report['functions']} functions unreached, "
        f"{report['unreached_body_lines']} body lines, over {report['entries']} entries"
        f" ({len(report['entries_nonzero'])} exited nonzero)"
    )
    if args.list:
        for row in report["unreached"]:
            print(f"{row['body_lines']:>5}  {row['function']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
