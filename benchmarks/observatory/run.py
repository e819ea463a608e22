#!/usr/bin/env python3
"""Perf observatory: four named workloads, six end-to-end metrics, and an
outside-in layer trace.  See ``README.md`` beside this file.

Three ways in:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One measured *unit* — what the benchmark driver (and the observatory
    below) invokes.  Runs cycles of ``W``, each in a fresh interpreter, for
    ``S`` seconds, checks the outputs, and prints one JSON object as its last
    line: the end-to-end metrics (``--trace 0``) or the per-layer ones (``1``).

``run.py [--workload W ...] [--repeats R] [--smoke] [--out FILE]``
    The observatory: every workload × ``R`` untraced units, interleaved
    round-robin, then the kernels once and one traced unit per workload;
    prints every metric by name and writes the lot to ``--out``.

``run.py --compare A.json B.json``
    Before/after table of two observatory results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import compare  # noqa: E402
import kernels  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

KERNEL_SCALE = {"full": 50, "smoke": 5}
SETUP_SAMPLES = {"full": 9, "smoke": 3}
TRACED_CYCLES = {"full": 3, "smoke": 1}
CYCLE_KINDS = ("plain", "serial", "timed", "traced", "setup", "kernels")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def engine_kinds(spec: Dict[str, Any]) -> tuple:
    """Engine kinds with a declared ``sim.engine.<kind>.events_per_s`` row."""
    return tuple(
        metric["name"].split(".")[2]
        for metric in spec["per_layer"]
        if metric["name"].startswith("sim.engine.") and metric["name"].endswith(".events_per_s")
    )


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_cycles(cycles: Sequence[Dict[str, Any]], pin: Optional[Dict[str, Any]]) -> List[str]:
    """Every breach of the correctness gate over a unit's untraced cycles."""
    problems: List[str] = []
    first = cycles[0]
    for index, cycle in enumerate(cycles):
        if cycle["failed"]:
            problems.append(
                f"cycle {index}: {cycle['failed']} of {cycle['attempted']} operations failed"
                + "".join(f" [{error}]" for error in cycle.get("errors", []))
            )
        for key in ("digest", "attempted", "pairs", "p99_us"):
            if cycle[key] != first[key]:
                problems.append(f"cycle {index}: {key} differs from cycle 0 (same seed must repeat exactly)")
    if pin is not None:
        ratio = first["pairs"][0] / first["pairs"][1]
        for name, seen, pinned in (
            ("digest", first["digest"], pin["digest"]),
            ("ops_attempted", first["attempted"], pin["ops_attempted"]),
            ("ops_failed", first["failed"], pin["ops_failed"]),
        ):
            if seen != pinned:
                problems.append(f"pin {name}: got {seen}, pinned {pinned}")
        for name, seen, pinned in (
            ("fairness_ratio", ratio, pin["fairness_ratio"]),
            ("trade_latency_p99_us", first["p99_us"], pin["trade_latency_p99_us"]),
        ):
            if not math.isclose(seen, pinned, rel_tol=1e-9):
                problems.append(f"pin {name}: got {seen!r}, pinned {pinned!r}")
    return problems


# ----------------------------------------------------------------------
# One cycle, in this process: the body of a fresh interpreter
# ----------------------------------------------------------------------
# The matrix's traced pass and its untraced reference: seed-index 0 of the
# cell list, serially in-process (spans do not cross the process pool).
SERIAL = {"seed_indices": (0,), "jobs": 1}


def traced_cycle(shape: Any, seed: int, engine: str, **matrix: Any) -> Dict[str, Any]:
    """One cycle under the tracer: its record plus the per-layer rows this
    cycle alone can give (everything but the kernels, ``parallel.*`` and
    ``trace.overhead_ratio``) and the span account they were read from."""
    tracer = Tracer()
    tracer.install()
    cycle = tracer.root(lambda: workloads.run_cycle(shape, seed, engine, **matrix))
    account = tracer.account()
    spans = account["spans"]
    layers = tracer.layer_table(spans)
    traced_wall = sum(row["self_s"] for row in layers.values())
    rows: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = layers[layer]["calls"], layers[layer]["self_s"]
        rows[f"{layer}.calls"] = calls
        rows[f"{layer}.self_s"] = self_s
        rows[f"{layer}.share"] = self_s / traced_wall
        rows[f"{layer}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    runs = account["deployment_runs"]

    def counter(name: str) -> float:
        return sum(run["counters"].get(name, 0) for run in runs)

    def channel(name: str) -> float:
        return sum(odometers[name] for run in runs for odometers in run["channels"].values())

    def total(name: str) -> float:
        return spans[name][1] if name in spans else 0.0

    # Start of run() to the first engine.run(): the lazy _build() + _start().
    starts = [run["start"] for run in account["engine_runs"]]
    build_s = sum(min(start for start in starts if start >= run["start"]) - run["start"] for run in runs)

    events = sum(run["events"] for run in account["engine_runs"])
    rows["sim.engine.events"] = events
    rows["sim.engine.peak_pending"] = max((run["peak_pending"] for run in account["engine_runs"]), default=0)
    rows["sim.engine.us_per_event"] = 1e6 * layers["sim.engine"]["self_s"] / events if events else 0.0
    for odometer in ("sent", "delivered", "dropped", "deduped"):
        rows[f"net.messages_{odometer}"] = channel(odometer)
    rows["core.release_buffer.heartbeats_sent"] = counter("heartbeats_sent")
    rows["core.release_buffer.batches_closed"] = counter("batches_closed")
    heartbeats = counter("ob_heartbeats_processed") + counter("shard_heartbeats_processed")
    released = sum(run["trades_released"] for run in runs)
    rows["core.ordering_buffer.heartbeats_processed"] = heartbeats
    rows["core.ordering_buffer.trades_released"] = released
    rows["core.ordering_buffer.heartbeats_per_trade"] = heartbeats / released if released else 0.0
    rows["core.aggregation.summaries_published"] = counter("agg_summaries_published")
    rows["core.aggregation.tree_nodes"] = max((run["counters"].get("agg_tree_nodes", 0) for run in runs), default=0)
    rows["core.system.build_s"] = build_s
    rows["exchange.trades_forwarded"] = sum(run["trades_forwarded"] for run in runs)
    rows["exchange.executions"] = sum(run["executions"] for run in runs)
    rows["faults.faults_fired"] = cycle.get("faults_fired", 0)
    fairness_s, pairs = total("evaluate_fairness"), account["fairness_pairs"]
    rows["metrics.fairness_s"] = fairness_s
    rows["metrics.fairness_pairs"] = pairs
    rows["metrics.pairs_per_s"] = pairs / fairness_s if fairness_s else 0.0
    rows["metrics.latency_s"] = total("latency_stats")
    rows["metrics.digest_s"] = total("trade_ordering_digest")
    cycle["traced_wall_s"] = traced_wall
    cycle["rows"] = rows
    cycle["trace"] = {
        "spans": dict(sorted(spans.items())),
        "span_layers": dict(sorted(tracer.layer_of_span.items())),
        "timeline": tracer.timeline(),
        "targets_missing": tracer.missing,
    }
    return cycle


def run_cycle_here(args: argparse.Namespace) -> int:
    """``--cycle KIND``: one sample in this interpreter, printed as JSON."""
    if args.cycle == "kernels":
        print(json.dumps(kernels.run_kernels(engine_kinds(load_spec()), KERNEL_SCALE[args.mode])))
        return 0
    shape = args.shapes[args.workload[0]]
    matrix: Dict[str, Any] = {}
    if isinstance(shape, workloads.Matrix):
        matrix = {"serial": SERIAL, "traced": SERIAL, "timed": {"timed": True}}.get(args.cycle, {})
    if args.cycle == "setup":
        record: Dict[str, Any] = {"setup_s": workloads.setup_only(shape, args.seed, args.engine)}
    elif args.cycle == "traced":
        record = traced_cycle(shape, args.seed, args.engine, **matrix)
    else:
        record = workloads.run_cycle(shape, args.seed, args.engine, **matrix)
    print(json.dumps(record))
    return 0


def spawn_cycle(args: argparse.Namespace, kind: str, name: Optional[str] = None) -> Dict[str, Any]:
    """One ``--cycle KIND`` in a fresh interpreter: hash order pinned, ``gc``
    at its defaults, nothing of an earlier cycle left in memory."""
    command = [sys.executable, str(HERE / "run.py"), "--cycle", kind, "--seed", str(args.seed), "--engine", args.engine]
    if name is not None:
        command += ["--workload", name]
    if args.smoke:
        command.append("--smoke")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"observatory: {kind} cycle of {name} gave no result (exit {done.returncode})")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# One unit, untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, name: str):
    """Cycles until ``--seconds`` are used up (another one starts only while
    at least half of it fits), then set-up alone until it has been sampled
    ``SETUP_SAMPLES`` times (it is cheap, and the window holds few cycles)."""
    cycles = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cycles.append(spawn_cycle(args, "plain", name))
        now = time.perf_counter()
        if now - start + (now - began) / 2 >= args.seconds:
            break
    setups = [cycle["setup_s"] for cycle in cycles]
    while len(setups) < SETUP_SAMPLES[args.mode]:
        setups.append(spawn_cycle(args, "setup", name)["setup_s"])
    return cycles, setups


def end_to_end(cycles: Sequence[Dict[str, Any]], setups: Sequence[float]) -> Dict[str, Dict[str, Any]]:
    """A unit's six metrics: each host-clock one is the median over the
    unit's cycles (the per-cycle samples, their minimum included, go to
    ``--out``); the simulated-clock ones are the same in every cycle."""
    first = cycles[0]

    def median(key: str) -> float:
        return statistics.median(cycle[key] for cycle in cycles)

    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "trades_per_s": {"value": first["work"] / median("run_s"), "unit": "trades/s"},
        "cell_wall_s": {"value": median("cell_wall_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MiB"},
        "fairness_ratio": {"value": first["pairs"][0] / first["pairs"][1], "unit": "ratio"},
        "trade_latency_p99_us": {"value": first["p99_us"], "unit": "us"},
    }


# ----------------------------------------------------------------------
# One unit, traced: the per-layer metrics
# ----------------------------------------------------------------------
def traced_unit(
    args: argparse.Namespace, name: str, spec: Dict[str, Any],
    pin: Optional[Dict[str, Any]], kernel_rows: Optional[Dict[str, float]],
):
    """Untraced reference cycles, then as many traced ones; the rows are
    those of the traced cycle with the median wall, so they are one run's
    account and the shares sum to 1.  Counts must repeat exactly from cycle
    to cycle.  The matrix's ``parallel.*`` rows come from one more untraced
    jobs=2 cycle through ``timed_run_cell`` (0 on the other workloads).
    ``kernel_rows`` are run here unless the observatory already has them.
    """
    problems: List[str] = []
    repeats = TRACED_CYCLES[args.mode]
    parallel = {"cell_s_p50": 0.0, "cell_s_max": 0.0, "efficiency": 0.0, "result_bytes": 0}
    full = None
    if isinstance(args.shapes[name], workloads.Matrix):
        full = spawn_cycle(args, "timed", name)
        problems += check_cycles([full], pin)
        parallel = {
            "cell_s_p50": statistics.median(full["cell_s"]),
            "cell_s_max": max(full["cell_s"]),
            "efficiency": sum(full["cell_s"]) / (full["jobs"] * full["run_s"]),
            "result_bytes": full["result_bytes"],
        }
        pin = None  # the pins describe the full table, not the traced subset
    untraced = [spawn_cycle(args, "serial", name) for _ in range(repeats)]
    problems += check_cycles(untraced, pin)
    reference = untraced[0]
    if full is not None:
        for label, digests in reference["cell_digests"].items():
            if full["cell_digests"][label] != digests:
                problems.append(f"cell {label}: jobs={full['jobs']} digest differs from the serial run")
    traced = [spawn_cycle(args, "traced", name) for _ in range(repeats)]
    problems += [f"traced {problem}" for problem in check_cycles([reference, *traced], None)]
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for cycle in traced[1:]:
        if any(cycle["rows"][n] != traced[0]["rows"][n] for n in cycle["rows"] if units.get(n) == "count"):
            problems.append("exact counts differ between traced cycles of the same seed")
    chosen = sorted(traced, key=lambda cycle: cycle["traced_wall_s"])[len(traced) // 2]

    rows = dict(kernel_rows if kernel_rows is not None else spawn_cycle(args, "kernels"))
    rows.update(chosen["rows"])
    for key, value in parallel.items():
        rows[f"parallel.{key}"] = value
    # Import excluded on both sides: the tracer loads `repro` to patch it.
    rows["trace.overhead_ratio"] = chosen["traced_wall_s"] / statistics.median(
        cycle["cell_wall_s"] - cycle["import_s"] for cycle in untraced
    )
    if set(rows) != set(units):
        problems.append(
            f"per-layer metrics differ from BENCHMARK.json: undeclared {sorted(set(rows) - set(units))}, "
            f"unmeasured {sorted(set(units) - set(rows))}"
        )
    metrics = {n: {"value": rows[n], "unit": unit} for n, unit in units.items() if n in rows}
    cycles = [reference, *traced]
    detail = {"cycles": cycles, "untraced_digest": (full or reference)["digest"], **chosen["trace"]}
    for cycle in traced:
        del cycle["rows"], cycle["trace"]
    return metrics, problems, detail


# ----------------------------------------------------------------------
def run_unit(args: argparse.Namespace, name: str, trace: int, kernel_rows: Optional[Dict[str, float]] = None):
    """One unit of ``name``: the driver's result object, and the samples
    behind it for ``--out``."""
    spec = load_spec()
    pin = load_pins()[args.mode].get(name) if args.seed == workloads.DEFAULT_SEED else None
    if trace:
        metrics, problems, detail = traced_unit(args, name, spec, pin, kernel_rows)
        cycles = detail["cycles"]
    else:
        cycles, setups = measure(args, name)
        problems = check_cycles(cycles, pin)
        metrics = end_to_end(cycles, setups)
        detail = {"cycles": cycles, "setups": setups}
    for problem in problems:
        print(f"observatory: {name}: {problem}", file=sys.stderr)
    for cycle in cycles:
        cycle.pop("cell_digests", None)
    result = {
        "correct": not problems,
        "attempted": sum(cycle["attempted"] for cycle in cycles),
        "failed": sum(cycle["failed"] for cycle in cycles),
        "metrics": metrics,
    }
    return result, detail


# ----------------------------------------------------------------------
# The observatory
# ----------------------------------------------------------------------
def observe(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    units: Dict[str, list] = {name: [] for name in names}
    for repeat in range(args.repeats):  # A B C D, A B C D, ...: drift hits all alike
        for name in names:
            print(f"[{repeat + 1}/{args.repeats}] {name} ...", file=sys.stderr, flush=True)
            units[name].append(run_unit(args, name, trace=0))
    print("[kernels] ...", file=sys.stderr, flush=True)
    kernel_rows = spawn_cycle(args, "kernels")  # workload-independent: once, not per workload
    traced = {}
    for name in names:
        print(f"[trace] {name} ...", file=sys.stderr, flush=True)
        traced[name] = run_unit(args, name, trace=1, kernel_rows=kernel_rows)

    result: Dict[str, Any] = {
        "schema": 2,
        "mode": args.mode,
        "seed": args.seed,
        "engine": args.engine,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    correct = True
    for name in names:
        runs = [unit for unit, _detail in units[name]]
        cycles = [cycle for _unit, detail in units[name] for cycle in detail["cycles"]]
        first = cycles[0]
        traced_unit_result, trace = traced[name]
        entry: Dict[str, Any] = {
            "digest": first["digest"],
            "ops_attempted": first["attempted"],
            "ops_failed": first["failed"],
            "correct": all(unit["correct"] for unit in runs) and traced_unit_result["correct"],
            "end_to_end": {},
            "phases": {
                phase: compare.summarize([cycle[phase] for cycle in cycles])
                for phase in ("import_s", "run_s", "post_s", "cell_wall_s", "cpu_s")
            },
            "per_layer": traced_unit_result["metrics"],
            "trace": trace,
        }
        for metric in spec["end_to_end"]:
            samples = [unit["metrics"][metric["name"]]["value"] for unit in runs]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **compare.summarize(samples),
            }
        if trace["untraced_digest"] != first["digest"]:
            entry["correct"] = False
            print(f"observatory: {name}: the traced unit's digest differs from the untraced units'", file=sys.stderr)
        correct = correct and entry["correct"]
        result["workloads"][name] = entry
    result["correct"] = correct

    compare.print_result(result, LAYERS)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"result written to {args.out}")
    print("CORRECT" if correct else "INCORRECT — see the messages above")
    return 0 if correct else 1


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="feeds spec generation, Runtime and cell seeds; pins apply to the default only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window of one unit (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE unit: 0 = end-to-end metrics, 1 = traced per-layer metrics")
    parser.add_argument("--engine", default="heap", help="event engine kind; any kind must reproduce the heap pins")
    parser.add_argument("--repeats", type=int, default=3, help="untraced units per workload (observatory)")
    parser.add_argument("--smoke", action="store_true", help="the same four shapes at a tenth of the horizon")
    parser.add_argument("--out", help="write the observatory result as JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two observatory results")
    parser.add_argument("--cycle", choices=CYCLE_KINDS, help=argparse.SUPPRESS)  # spawn_cycle's child
    args = parser.parse_args(argv)

    if args.compare:
        return compare.compare_files(*args.compare)
    args.mode = "smoke" if args.smoke else "full"
    args.shapes = workloads.SMOKE_WORKLOADS if args.smoke else workloads.WORKLOADS
    for name in args.workload or ():
        if name not in args.shapes:
            parser.error(f"unknown workload {name!r}; choose from {sorted(args.shapes)}")
    if not (SRC / "repro").is_dir():
        print(f"observatory: no simulator at {SRC / 'repro'} — nothing to measure", file=sys.stderr)
        return 2
    if args.cycle:
        return run_cycle_here(args)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs one unit: give exactly one --workload")
        result, _detail = run_unit(args, args.workload[0], args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return observe(args)


if __name__ == "__main__":
    sys.exit(main())
