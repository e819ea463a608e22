"""The four workloads, and one measured *cycle* of each.

A cycle is what one ``repro run --json`` / one matrix table costs after
interpreter start: import ``repro``, generate specs, build the deployment
(``setup``), ``deployment.run`` (``run``), then ``summarize`` + trade-ordering
digest (``post``).  ``run.py`` gives every cycle a fresh interpreter, so the
import is a real one, ``gc`` is in its default state and the peak resident
set is one cell's.  ``repro`` is only ever reached through its public entry
points, imported here inside the cycle.

Why these four — see ``README.md`` and the ``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_SEED",
    "Leg",
    "Matrix",
    "WORKLOADS",
    "SMOKE_WORKLOADS",
    "run_cycle",
    "setup_only",
    "matrix_cells",
    "timed_run_cell",
    "peak_rss_mb",
]

DEFAULT_SEED = 7

# Crash plans: odd seed indices run supervised (detected recovery), even ones
# scripted — both with a retransmit policy.  Without one a scripted shard
# failure is *expected* to cost ordering for trades in flight (the paper's
# §4.2.1 "system will incur unfairness"): about one cell in two thousand
# then reports a `release_order` violation (base seed 305 shard-loss, 1024
# shard-crash), and a workload must not fail at any seed.
CRASH_PLANS = ("ob-failover", "ob-crash", "shard-loss", "shard-crash", "aggregator-crash")


@dataclass(frozen=True)
class Leg:
    """One deployment run: scheme, size, simulated horizon (µs)."""

    scheme: str
    participants: int
    feed_us: float
    drain_us: float
    execute_trades: bool = False
    tau: Optional[float] = None  # DBOParams(tau=...) when set
    tree: Optional[Tuple[int, int]] = None  # AggregationTopology(fanout, depth)
    batch_interval: Optional[float] = None  # fba


@dataclass(frozen=True)
class Matrix:
    """A chaos cell matrix run through ``repro.parallel.run_cells``."""

    seeds: int
    participants: int
    duration_us: float
    jobs: int
    feed_interval: float = 40.0

    @property
    def trades_per_cell(self) -> int:
        """Nominal offered trades of one ok cell: two twin runs, every
        participant answering every tick (``CellResult`` carries no trade
        count, and one throughput name should serve all workloads)."""
        ticks = int(-(-self.duration_us // self.feed_interval))
        return 2 * self.participants * ticks


def _baselines(feed_us: float, drain_us: float) -> Tuple[Leg, ...]:
    return tuple(
        Leg(scheme, 64, feed_us, drain_us, execute_trades=True, batch_interval=interval)
        for scheme, interval in (("direct", None), ("cloudex", None), ("fba", 1000.0), ("libra", None))
    )


# Sized to a 4.5-8 s cycle each, so that a 28 s unit holds four to seven of
# them and the driver's 92 units fit its time cap.  That is the issue's shapes
# with the feed shortened and N untouched: every feed is at least as long as
# its drain and spans hundreds of feed ticks (the tree: five 2048-way races).
# README, "Horizon check", compares the layer shares at these horizons with
# the issue's longer ones.
WORKLOADS: Dict[str, Any] = {
    "dbo-n64-flat": (Leg("dbo", 64, 40_000.0, 10_000.0),),
    "dbo-n2048-tree": (Leg("dbo", 2048, 200.0, 200.0, tau=20.0, tree=(8, 3)),),
    "baselines-n64-book": _baselines(16_000.0, 4_000.0),
    "chaos-matrix-j2": Matrix(seeds=3, participants=8, duration_us=6_000.0, jobs=2),
}

# The same shapes at roughly a tenth of the horizon (N=256 for the tree, one
# seed for the matrix); the whole smoke pass stays under 30 s.
SMOKE_WORKLOADS: Dict[str, Any] = {
    "dbo-n64-flat": (Leg("dbo", 64, 4_000.0, 1_000.0),),
    "dbo-n2048-tree": (Leg("dbo", 256, 200.0, 200.0, tau=20.0, tree=(8, 3)),),
    "baselines-n64-book": _baselines(1_600.0, 2_000.0),
    "chaos-matrix-j2": Matrix(seeds=1, participants=8, duration_us=2_000.0, jobs=2),
}


# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set (MiB): max of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class _Clock:
    """Laps of the wall clock."""

    def __init__(self) -> None:
        self._mark = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._mark = now - self._mark, now
        return elapsed


def _finish(import_s: float, steps: List[Tuple[float, float, float]], cpu_start: float, **fields: Any) -> Dict[str, Any]:
    """A cycle's record: per-step ``(setup, run, post)`` walls (one step per
    leg; the matrix is one step) and their per-phase sums."""
    setup_s, run_s, post_s = (sum(step[phase] for step in steps) for phase in range(3))
    return {
        "import_s": import_s,
        "steps": steps,
        "setup_s": import_s + setup_s,
        "run_s": run_s,
        "post_s": post_s,
        "cell_wall_s": import_s + setup_s + run_s + post_s,
        "cpu_s": _cpu_s() - cpu_start,
        "peak_rss_mb": peak_rss_mb(),
        **fields,
    }


# ----------------------------------------------------------------------
# Single-deployment workloads (one or more legs back to back)
# ----------------------------------------------------------------------
def _build_leg(leg: Leg, seed: int, engine: str) -> Any:
    """Spec generation through ``get_builder(scheme).build(...)``."""
    from repro.baselines.base import default_network_specs
    from repro.core.params import AggregationTopology, DBOParams
    from repro.experiments.registry import get_builder
    from repro.sim.runtime import Runtime

    kwargs: Dict[str, Any] = {}
    if leg.execute_trades:
        kwargs["execute_trades"] = True
    if leg.tau is not None:
        kwargs["params"] = DBOParams(tau=leg.tau)
    if leg.tree is not None:
        kwargs["topology"] = AggregationTopology(fanout=leg.tree[0], depth=leg.tree[1])
    if leg.batch_interval is not None:
        kwargs["batch_interval"] = leg.batch_interval
    specs = default_network_specs(leg.participants, seed=seed)
    return get_builder(leg.scheme).build(specs, runtime=Runtime.create(seed=seed, engine=engine), **kwargs)


def _cycle_legs(legs: Sequence[Leg], seed: int, engine: str) -> Dict[str, Any]:
    cpu_start = _cpu_s()
    clock = _Clock()
    import repro.experiments  # noqa: F401  (everything a leg needs)
    from repro.experiments.runner import summarize
    from repro.metrics.serialization import trade_ordering_digest

    import_s = clock.lap()
    steps: List[Tuple[float, float, float]] = []
    attempted = completed = correct = total = 0
    p99s: List[float] = []
    digests: List[str] = []
    for leg in legs:
        deployment = _build_leg(leg, seed, engine)
        setup = clock.lap()
        result = deployment.run(duration=leg.feed_us, drain=leg.drain_us)
        run = clock.lap()
        summary = summarize(result, with_bound=False)
        digests.append(trade_ordering_digest(result))
        steps.append((setup, run, clock.lap()))
        attempted += len(result.trades)
        completed += sum(1 for trade in result.trades if trade.position is not None)
        correct += summary.fairness.correct_pairs
        total += summary.fairness.total_pairs
        p99s.append(summary.latency.p99)
        # Freeing a leg is not a cost a one-shot process pays: lap it away.
        del deployment, result, summary
        clock.lap()
    digest = digests[0] if len(digests) == 1 else hashlib.sha256(";".join(digests).encode()).hexdigest()
    # Over legs: the geometric mean, so a relative change in any scheme's
    # tail moves it alike (the max would only ever show fba's batch wait).
    return _finish(
        import_s, steps, cpu_start,
        attempted=attempted, failed=attempted - completed, work=completed,
        digest=digest, pairs=[correct, total], p99_us=statistics.geometric_mean(p99s),
    )


# ----------------------------------------------------------------------
# The chaos matrix
# ----------------------------------------------------------------------
MATRIX_BASELINES = ("prob", "direct", "cloudex")


def matrix_cells(shape: Matrix, seed: int, engine: str, seed_indices: Optional[Sequence[int]] = None) -> list:
    """The fixed cell list: dbo × every chaos plan × seeds, plus three
    other schemes × ``link-flaky`` × seeds — every cell applicable."""
    from repro.core.release_buffer import RetransmitPolicy
    from repro.experiments.chaos import CHAOS_PLANS
    from repro.parallel import CellSpec, cell_seed

    indices = range(shape.seeds) if seed_indices is None else seed_indices
    rows = [("dbo", plan) for plan in CHAOS_PLANS] + [(s, "link-flaky") for s in MATRIX_BASELINES]
    cells = []
    for scheme, plan in rows:
        for index in indices:
            kwargs: Dict[str, Any] = {}
            if scheme == "dbo" and plan in CRASH_PLANS:
                kwargs = {"supervise": True} if index % 2 else {"retransmit_policy": RetransmitPolicy()}
            cells.append(
                CellSpec(
                    scheme=scheme,
                    plan=plan,
                    seed=cell_seed(seed, scheme, "cloud", plan, index),
                    scenario="cloud",
                    participants=shape.participants,
                    duration=shape.duration_us,
                    engine=engine,
                    feed_interval=shape.feed_interval,
                    scheme_kwargs=kwargs,
                )
            )
    return cells


def timed_run_cell(cell: Any) -> Tuple[float, int, Any]:
    """``run_cell`` with its wall and pickled result size (pool worker body)."""
    from repro.parallel.matrix import run_cell

    start = time.perf_counter()
    result = run_cell(cell)
    return time.perf_counter() - start, len(pickle.dumps(result)), result


def _cycle_matrix(
    shape: Matrix, seed: int, engine: str,
    seed_indices: Optional[Sequence[int]] = None, jobs: Optional[int] = None, timed: bool = False,
) -> Dict[str, Any]:
    """``timed`` routes the cells through :func:`timed_run_cell` (same pool,
    same order) to collect per-cell walls and pickled result sizes."""
    cpu_start = _cpu_s()
    clock = _Clock()
    from repro.analysis.stats import pooled_fairness, summarize_samples
    from repro.experiments.chaos_tables import ChaosTable
    from repro.parallel import parallel_map, run_cells

    import_s = clock.lap()
    cells = matrix_cells(shape, seed, engine, seed_indices)
    setup = clock.lap()
    jobs = shape.jobs if jobs is None else jobs
    profile: Dict[str, Any] = {}
    if timed:
        outcomes = parallel_map(timed_run_cell, cells, jobs=jobs)
        failed = [outcome.error for outcome in outcomes if not outcome.ok]
        if failed:
            raise RuntimeError(f"matrix cells failed: {failed}")
        results = [outcome.value[2] for outcome in outcomes]
        profile = {
            "cell_s": [outcome.value[0] for outcome in outcomes],
            "result_bytes": sum(outcome.value[1] for outcome in outcomes),
        }
    else:
        results = run_cells(cells, jobs=jobs)
    run = clock.lap()
    # The table's aggregation (pooled Wilson intervals per row) and digest.
    groups: Dict[Tuple[str, str], list] = {}
    for result in results:
        if result.ok:
            groups.setdefault((result.cell.scheme, result.cell.plan), []).append(result)
    for group in groups.values():
        pooled_fairness([r.clean_pairs for r in group], 0.95)
        pooled_fairness([r.faulted_pairs for r in group], 0.95)
        summarize_samples([r.degradation["p99_inflation"] for r in group], 0.95)
        summarize_samples([r.degradation["completion_drop"] for r in group], 0.95)
    table = ChaosTable(
        schemes=sorted({c.scheme for c in cells}), plans=sorted({c.plan for c in cells}),
        n_seeds=shape.seeds, base_seed=seed, scenario="cloud", participants=shape.participants,
        duration=shape.duration_us, engine=engine, confidence=0.95, cells=results, entries=[],
    )
    digest = table.digest()
    post = clock.lap()
    good = [r for r in results if r.ok and r.safe]
    faulted = [r.faulted_pairs for r in results if r.ok]
    return _finish(
        import_s, [(setup, run, post)], cpu_start,
        jobs=jobs, attempted=len(cells), failed=len(cells) - len(good),
        work=len(good) * shape.trades_per_cell,
        digest=digest,
        pairs=[sum(p[0] for p in faulted), sum(p[1] for p in faulted)],
        p99_us=max((r.degradation["faulted_p99"] for r in results if r.ok), default=0.0),
        cell_digests={r.cell.label: [r.clean_digest, r.faulted_digest] for r in results if r.ok},
        faults_fired=sum(r.injector["faults_fired"] for r in results if r.ok),
        errors=sorted({r.error for r in results if not r.ok}),
        **profile,
    )


def run_cycle(shape: Any, seed: int, engine: str, **matrix: Any) -> Dict[str, Any]:
    """One measured cycle of a workload shape (a ``Matrix`` or a tuple of legs)."""
    if isinstance(shape, Matrix):
        return _cycle_matrix(shape, seed, engine, **matrix)
    return _cycle_legs(shape, seed, engine)


def setup_only(shape: Any, seed: int, engine: str) -> float:
    """Set-up alone — ``import repro`` through build / cell-list
    construction — for units whose cycles are too long to sample it often."""
    clock = _Clock()
    if isinstance(shape, Matrix):
        matrix_cells(shape, seed, engine)
    else:
        import repro.experiments  # noqa: F401  (as a cycle does)

        for leg in shape:
            _build_leg(leg, seed, engine)
    return clock.lap()
