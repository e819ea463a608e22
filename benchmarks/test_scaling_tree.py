"""Participant-axis scaling: the tree heartbeat plane at N = 128 → 10k.

Figure-12-style sweep along the axis the paper never drives this far:
the same DBO deployment (fanout-8, depth-3 aggregation tree) at 128,
1024 and 10 000 participants.  What the flat §5.2 plane cannot survive —
the master doing O(N) heartbeat work per tick — the tree turns into
O(tree width): the master's ``ob_heartbeats_processed`` odometer grows
with the number of its *direct children*, not with N, which this
benchmark counter-verifies per cell.

Results (events/s, master heartbeat work, completion, fairness) are
printed and written to the git-ignored ``benchmarks/output/`` by the
``report`` fixture, so host timings never land in a tracked file.
Fairness pairs are pinned exactly at N=1024 — the tree must not cost a
single correctly-ordered pair.

The ``smoke`` subset (``pytest benchmarks/test_scaling_tree.py -k
smoke``) runs only the N=1024 cell; CI's scaling-smoke job uses it.
"""

import json
import time

from repro.baselines.base import default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.experiments.registry import get_builder
from repro.metrics.fairness import evaluate_fairness
from repro.sim.runtime import Runtime

FANOUT = 8
DEPTH = 3
SEED = 7
TAU = 20.0
# The production scheduler; the pinned pair counts below hold on the
# reference oracle too (tests/test_engine_differential.py).
ENGINE = "heap"

# (participants, feed duration µs, drain µs).  Durations shrink with N to
# keep the sweep tractable; per-tick counters are normalized by run
# length, so the O(shards) verification is duration-independent.
CELLS = (
    (128, 3_000.0, 1_500.0),
    (1_024, 1_500.0, 1_500.0),
    (10_000, 500.0, 1_500.0),
)

# Pinned at N=1024, seed 7 (exact pair counts — the tree must not cost
# a single correctly-ordered pair; the ~5e-5 shortfall from a perfect
# ratio is the paper's ε: pairs whose response times differ by less than
# the jitter the δ-horizon absorbs).
PINNED_FAIRNESS_1024 = (19_902_428, 19_903_488)

def _run_cell(n_participants: int, duration: float, drain: float) -> dict:
    specs = default_network_specs(n_participants, seed=SEED)
    runtime = Runtime.create(seed=SEED, engine=ENGINE)
    deployment = get_builder("dbo").build(
        specs,
        runtime=runtime,
        params=DBOParams(tau=TAU),
        topology=AggregationTopology(fanout=FANOUT, depth=DEPTH),
    )
    wall_start = time.perf_counter()
    result = deployment.run(duration=duration, drain=drain)
    wall = time.perf_counter() - wall_start
    counters = result.counters
    completed = sum(1 for t in result.trades if t.position is not None)
    # Simulated time the run covered: it stops once settled, short of
    # duration + drain.
    total_time = counters["settled_at"]
    master_hb = counters["ob_heartbeats_processed"]
    width = counters["agg_tree_width"]
    row = {
        "participants": n_participants,
        "shards": len(deployment.shards),
        "tree_width": width,
        "tree_nodes": counters["agg_tree_nodes"],
        "duration_us": duration,
        "drain_us": drain,
        "events_processed": deployment.engine.events_processed,
        "wall_seconds": wall,
        "events_per_second": deployment.engine.events_processed / wall,
        "master_heartbeats_processed": master_hb,
        "master_hb_per_tick": master_hb / (total_time / TAU),
        "flat_hb_per_tick_would_be": float(n_participants),
        "trades_submitted": len(result.trades),
        "trades_completed": completed,
    }
    if n_participants <= 1_024:
        fairness = evaluate_fairness(result)
        row["fairness_correct_pairs"] = fairness.correct_pairs
        row["fairness_total_pairs"] = fairness.total_pairs
        row["fairness_ratio"] = fairness.ratio
    return row


def _check_cell(row: dict) -> None:
    # Every cell completes: the tree loses no trades at any N.
    assert row["trades_completed"] == row["trades_submitted"], row
    # O(shards), not O(N): the master's per-tick heartbeat work is its
    # direct-child count (one summary per child per tick, ± timer phase),
    # orders of magnitude below the flat plane's N.
    assert row["master_hb_per_tick"] <= row["tree_width"] + 1.0, row
    assert row["master_hb_per_tick"] < row["participants"] / 8.0, row


def test_scaling_smoke_1024(report):
    row = _run_cell(1_024, 1_500.0, 1_500.0)
    _check_cell(row)
    # The pinned fairness pair counts: byte-exact, seed 7.
    assert (
        row["fairness_correct_pairs"],
        row["fairness_total_pairs"],
    ) == PINNED_FAIRNESS_1024
    assert row["fairness_ratio"] > 0.9999
    report(
        "scaling_smoke_1024",
        json.dumps({k: v for k, v in row.items() if k != "wall_seconds"}, indent=2),
    )


def test_scaling_tree_sweep(report):
    rows = [_run_cell(*cell) for cell in CELLS]
    for row in rows:
        _check_cell(row)
    by_n = {row["participants"]: row for row in rows}
    assert (
        by_n[1_024]["fairness_correct_pairs"],
        by_n[1_024]["fairness_total_pairs"],
    ) == PINNED_FAIRNESS_1024
    # Master heartbeat work grows with tree width, not with N: from 128
    # to 10k participants N grows 78x, the per-tick master work only by
    # the width ratio.
    width_ratio = by_n[10_000]["tree_width"] / by_n[128]["tree_width"]
    work_ratio = by_n[10_000]["master_hb_per_tick"] / by_n[128]["master_hb_per_tick"]
    n_ratio = 10_000 / 128
    assert work_ratio <= width_ratio * 1.5
    assert work_ratio < n_ratio / 3.0
    doc = {
        "benchmark": "participant-axis scaling, fanout-8 depth-3 tree",
        "seed": SEED,
        "tau_us": TAU,
        "engine": ENGINE,
        "cells": rows,
    }
    report("scaling_tree", json.dumps(doc, indent=2, sort_keys=True))
