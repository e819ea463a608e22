"""Summaries, the printed result, and the before/after comparison.

The comparison applies the repo's regression rule to two observatory
results: per workload × end-to-end metric, B's median may be worse than
A's by at most the metric's bound.  Where A's own run-to-run spread is
wider than the bound the verdict is ``unresolved`` unless every B run
sits on one side of every A run.  Simulated-clock metrics, digests,
operation counts and exact per-layer counts must be *equal* when both
results used the same seed, mode and engine.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

__all__ = ["summarize", "print_result", "compare_files", "verdict"]

# Deterministic for a fixed seed: compared for equality, never by bound.
SIMULATED = ("fairness_ratio", "trade_latency_p99_us")


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, min, quartiles and count of one metric's samples."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "samples": list(samples),
    }


def _spread(summary: Dict[str, Any]) -> float:
    """Interquartile range as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def _fmt(value: float) -> str:
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".") if abs(value) < 1000 else f"{value:,.0f}"
    return f"{value:.4g}"


# ----------------------------------------------------------------------
def print_result(result: Dict[str, Any], layers: Sequence[str]) -> None:
    """Every metric by name, with unit, direction and regression bound."""
    print(
        f"observatory {result['mode']} · seed {result['seed']} · engine {result['engine']} · "
        f"{result['repeats']} units × {result['seconds']:g} s per workload"
    )
    for name, entry in result["workloads"].items():
        print(f"\n== {name}   ops {entry['ops_attempted']} attempted / {entry['ops_failed']} failed per cycle"
              f"   digest {entry['digest'][:16]}   {'ok' if entry['correct'] else 'INCORRECT'}")
        print(f"  {'end-to-end metric':<22}{'median':>12} {'unit':<9}{'min':>12}{'q1':>12}{'q3':>12}{'n':>3}  better  bound")
        for metric, row in entry["end_to_end"].items():
            bound = "exact" if metric in SIMULATED else f"{100 * row['bound']:.0f}%"
            print(
                f"  {metric:<22}{_fmt(row['median']):>12} {row['unit']:<9}{_fmt(row['min']):>12}"
                f"{_fmt(row['q1']):>12}{_fmt(row['q3']):>12}{row['n']:>3}  {row['better']:<6}  {bound}"
            )
        phases = entry["phases"]
        print("  per cycle, median (min) s:  " + "  ".join(
            f"{phase[:-2]} {_fmt(phases[phase]['median'])} ({_fmt(phases[phase]['min'])})"
            for phase in ("import_s", "run_s", "post_s", "cell_wall_s", "cpu_s")
        ) + f"   [{phases['cpu_s']['n']} cycles; cpu beside wall shows scheduler noise]")
        layer_rows = entry["per_layer"]
        if not layer_rows:
            continue
        print(f"  {'layer (traced pass)':<22}{'calls':>12}{'self_s':>10}{'share':>8}{'us/call':>10}")
        for layer in layers:
            print(
                f"  {layer:<22}{layer_rows[f'{layer}.calls']['value']:>12,.0f}"
                f"{layer_rows[f'{layer}.self_s']['value']:>10.3f}"
                f"{100 * layer_rows[f'{layer}.share']['value']:>7.1f}%"
                f"{layer_rows[f'{layer}.us_per_call']['value']:>10.2f}"
            )
        generic = {f"{layer}.{suffix}" for layer in layers for suffix in ("calls", "self_s", "share", "us_per_call")}
        others = [(metric, row) for metric, row in layer_rows.items() if metric not in generic]
        for index in range(0, len(others), 2):
            print("  " + "".join(
                f"{metric:<46}{_fmt(row['value']):>14} {row['unit']:<10}" for metric, row in others[index:index + 2]
            ))


# ----------------------------------------------------------------------
def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """``worse`` / ``same`` / ``better`` / ``unresolved`` for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]  # > 0 is worse
    if _spread(a) > bound:
        if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
            return "better"
        if all(sign * (y - x) > 0 for x in a["samples"] for y in b["samples"]):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    comparable = all(a[key] == b[key] for key in ("mode", "seed", "engine"))
    print(f"A = {path_a}\nB = {path_b}")
    if not comparable:
        print("mode/seed/engine differ: simulated-clock metrics and counts are not compared for equality")
    bad: List[str] = []
    print(f"\n{'workload':<20}{'metric':<22}{'A median':>13}{'B median':>13}{'B/A':>8}  {'A spread':>8}  verdict")
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<20}missing from B")
            bad.append(f"{name} missing from B")
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            if metric in SIMULATED:
                if not comparable:
                    outcome = "-"
                else:
                    outcome = "equal" if row_a["median"] == row_b["median"] else "DIFFERENT"
            else:
                outcome = verdict(row_a, row_b, row_a["better"], row_a["bound"])
            if outcome in ("worse", "DIFFERENT"):
                bad.append(f"{name} {metric}: {outcome}")
            print(
                f"{name:<20}{metric:<22}{_fmt(row_a['median']):>13}{_fmt(row_b['median']):>13}"
                f"{row_b['median'] / row_a['median']:>8.3f}  {100 * _spread(row_a):>7.1f}%  {outcome}"
                f"  (base A = {_fmt(row_a['median'])} {row_a['unit']})"
            )
        if comparable:
            exact = [key for key in ("digest", "ops_attempted", "ops_failed") if entry_a[key] != entry_b[key]]
            exact += [
                metric for metric, row in entry_a["per_layer"].items()
                if row["unit"] == "count" and entry_b["per_layer"].get(metric, {}).get("value") != row["value"]
            ]
            for key in exact:
                bad.append(f"{name} {key}: DIFFERENT")
            print(f"{name:<20}digest, ops and {sum(r['unit'] == 'count' for r in entry_a['per_layer'].values())} "
                  f"exact layer counts: {'equal' if not exact else 'DIFFERENT ' + ', '.join(exact)}")
    print()
    for line in bad:
        print(f"REGRESSION  {line}")
    if not bad:
        print("no metric worse than its bound; every exact value equal" if comparable else "no metric worse than its bound")
    return 1 if bad else 0
