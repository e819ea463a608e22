"""Declarative experiment cells and the matrix fan-out built on them.

A :class:`CellSpec` names one isolated engine run — scheme × scenario ×
optional fault plan × seed — entirely with picklable values (names and
numbers, never live objects).  The worker, :func:`run_cell`, rebuilds the
scenario specs and deployment *inside* the worker process and reduces
the run to a :class:`CellResult` carrying only JSON/pickle-safe payloads
(``summary_to_dict`` digests, ``DegradationReport`` dicts, trade-ordering
digests, fairness pair counts) — never a ``RunResult``, whose
``reverse_latency_at`` accessor is a closure and cannot cross the
process boundary.

Seed determinism: each cell's seed is derived with
:func:`repro.sim.randomness.substream_seed` from the base seed and the
cell's labels, so a cell's result depends only on its own coordinates —
not on worker count, scheduling, or which other cells exist.  That is
what makes ``jobs=N`` byte-identical to ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.parallel.pool import TaskOutcome, parallel_map
from repro.sim.randomness import substream_seed

__all__ = ["CellSpec", "CellResult", "cell_seed", "run_cell", "run_cells"]


def cell_seed(base_seed: int, scheme: str, scenario: str, plan: Optional[str], index: int) -> int:
    """The deterministic seed substream for one matrix cell.

    Masked to 32 bits purely for readability in JSON artifacts; the
    substream derivation already guarantees independence across cells.
    """
    return substream_seed(base_seed, scheme, scenario, plan or "", index) & 0xFFFFFFFF


@dataclass(frozen=True)
class CellSpec:
    """One isolated engine run, described with picklable values only.

    ``plan`` is a named chaos plan (run clean + faulted twins via
    :func:`repro.experiments.chaos.run_chaos`) or ``None`` for a plain
    run.  ``scheme_kwargs`` reach the deployment constructor (e.g. an FBA
    ``batch_interval`` short enough for the duration, or a frozen —
    hence picklable — :class:`~repro.core.params.AggregationTopology`
    selecting the hierarchical heartbeat tree for DBO cells).
    """

    scheme: str
    seed: int
    plan: Optional[str] = None
    scenario: str = "cloud"
    participants: int = 4
    duration: float = 6_000.0
    engine: str = "heap"
    feed_interval: float = 40.0
    scheme_kwargs: Dict[str, Any] = field(default_factory=dict)
    drain: Optional[float] = None  # None: the deployment's default drain

    @property
    def label(self) -> str:
        plan = self.plan or "clean"
        return f"{self.scheme}|{plan}|{self.scenario}|{self.seed}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "plan": self.plan,
            "scenario": self.scenario,
            "participants": self.participants,
            "duration": self.duration,
            "engine": self.engine,
            "feed_interval": self.feed_interval,
            "scheme_kwargs": {k: repr(v) for k, v in sorted(self.scheme_kwargs.items())},
            # Only when set, so default cells keep their artifacts' bytes.
            **({} if self.drain is None else {"drain": self.drain}),
        }


@dataclass
class CellResult:
    """What one cell produced — or why it could not run.

    For chaos cells both twin digests, the degradation dict, and the
    clean/faulted fairness pair counts (for pooled Wilson intervals) are
    populated; plain cells fill ``clean_digest``/``summary``/
    ``clean_pairs`` only.  Failed cells (``ok=False``) carry the
    deterministic ``error`` string plus the structured ``error_type``
    (exception class name) — an inapplicable scheme × plan combo is
    data, not a crash.
    """

    cell: CellSpec
    ok: bool
    error: Optional[str] = None
    error_type: Optional[str] = None
    clean_digest: Optional[str] = None
    faulted_digest: Optional[str] = None
    summary: Optional[Dict[str, Any]] = None
    degradation: Optional[Dict[str, Any]] = None
    clean_pairs: Optional[Tuple[int, int]] = None
    faulted_pairs: Optional[Tuple[int, int]] = None
    safe: Optional[bool] = None
    injector: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "ok": self.ok,
            "error": self.error,
            "error_type": self.error_type,
            "clean_digest": self.clean_digest,
            "faulted_digest": self.faulted_digest,
            "summary": self.summary,
            "degradation": self.degradation,
            "clean_pairs": list(self.clean_pairs) if self.clean_pairs else None,
            "faulted_pairs": list(self.faulted_pairs) if self.faulted_pairs else None,
            "safe": self.safe,
            "injector": self.injector,
        }


@dataclass(frozen=True)
class _SpecsFactory:
    """A module-level, *picklable* specs thunk (DBO104-clean by construction).

    Historically this was a closure (``lambda: builder(...)``); it never
    actually crossed the process boundary — it is created inside the
    worker by :func:`run_cell` — but a picklable callable makes that
    safety structural rather than incidental, and the spawn-mode
    regression test can now assert it directly.
    """

    scenario: str
    participants: int
    seed: int

    def __call__(self) -> list:
        from repro.experiments.scenarios import SCENARIOS

        return SCENARIOS[self.scenario](self.participants, seed=self.seed)


def _specs_factory(cell: CellSpec) -> _SpecsFactory:
    # Imported lazily: repro.experiments imports this package (via
    # chaos_tables), so a top-level import here would cycle.
    from repro.experiments.scenarios import SCENARIOS

    if cell.scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {cell.scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    return _SpecsFactory(cell.scenario, cell.participants, cell.seed)


def run_cell(cell: CellSpec) -> CellResult:
    """Execute one cell in the current process (the pool worker body)."""
    from repro.exchange.feed import FeedConfig
    from repro.experiments.chaos import make_plan, run_chaos
    from repro.experiments.runner import run_scheme, summarize
    from repro.metrics.serialization import summary_to_dict, trade_ordering_digest

    factory = _specs_factory(cell)
    common = dict(
        duration=cell.duration,
        drain=cell.drain,
        seed=cell.seed,
        engine=cell.engine,
        feed_config=FeedConfig(interval=cell.feed_interval),
    )
    if cell.plan is None:
        result = run_scheme(cell.scheme, factory(), **common, **cell.scheme_kwargs)
        summary = summarize(result, with_bound=False)
        return CellResult(
            cell=cell,
            ok=True,
            clean_digest=trade_ordering_digest(result),
            summary=summary_to_dict(summary),
            clean_pairs=(summary.fairness.correct_pairs, summary.fairness.total_pairs),
        )

    plan = make_plan(cell.plan, cell.duration, cell.participants)
    report = run_chaos(cell.scheme, factory, plan=plan, **common, **cell.scheme_kwargs)
    # The twins were evaluated once, inside the degradation report.
    clean_fairness = report.degradation.clean_fairness
    faulted_fairness = report.degradation.faulted_fairness
    return CellResult(
        cell=cell,
        ok=True,
        clean_digest=report.clean_digest,
        faulted_digest=report.faulted_digest,
        degradation=report.degradation.to_dict(),
        clean_pairs=(clean_fairness.correct_pairs, clean_fairness.total_pairs),
        faulted_pairs=(faulted_fairness.correct_pairs, faulted_fairness.total_pairs),
        safe=report.safe,
        injector=dict(report.injector_summary),
    )


def run_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    mp_context: Optional[str] = None,
) -> List[CellResult]:
    """Run every cell, serially or across processes; order is preserved.

    A cell that raises (inapplicable plan, unknown scheme, ...) comes
    back as ``CellResult(ok=False, error=...)`` — the sweep always
    returns ``len(cells)`` results.
    """
    outcomes: List[TaskOutcome] = parallel_map(
        run_cell, cells, jobs=jobs, mp_context=mp_context
    )
    results: List[CellResult] = []
    for cell, outcome in zip(cells, outcomes):
        if outcome.ok:
            results.append(outcome.value)
        else:
            results.append(
                CellResult(
                    cell=cell,
                    ok=False,
                    error=outcome.error,
                    error_type=outcome.exc_type,
                )
            )
    return results
