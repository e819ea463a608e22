""""Table 5": fairness degradation under chaos, across every scheme.

The paper reports single-trace fairness tables (Tables 2-4).  The chaos
subsystem can measure what those tables never could: how much fairness
each scheme *loses* under a named fault plan — and with multi-seed
pooling the comparison is statistically honest rather than anecdotal.

:func:`chaos_table` runs a full schemes × named-fault-plans × seeds
matrix through the process-parallel runner (:mod:`repro.parallel`) and
folds each (scheme, plan) group into one row:

* clean and faulted pairwise fairness with pooled **Wilson intervals**
  (:func:`repro.analysis.stats.pooled_fairness` — pairs pool across
  seeds because each cell runs from an independent seed substream);
* **p99 inflation** (faulted/clean latency ratio) averaged across seeds;
* completion drop and the audit verdict;
* inapplicable combinations (e.g. ``ob_failover`` against Direct, which
  has no ordering buffer to fail over) surface as ``n/a`` rows carrying
  the deterministic error — data, not a crash.

The whole artifact reduces to one SHA-256 **table digest** over the
per-cell trade-ordering digests, pinned in the regression suite so chaos
numbers cannot silently shift, and proven identical between ``--jobs 1``
and ``--jobs N``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.stats import pooled_fairness, summarize_samples
from repro.baselines.fba import FBADeployment
from repro.experiments.chaos import CHAOS_PLANS
from repro.experiments.registry import available_schemes
from repro.metrics.report import render_table
from repro.parallel import CellResult, CellSpec, cell_seed, run_cells

__all__ = ["ChaosTableEntry", "ChaosTable", "build_cells", "chaos_table"]


@dataclass
class ChaosTableEntry:
    """One (scheme, plan) row aggregated across seeds."""

    scheme: str
    plan: str
    seeds: List[int]
    n_ok: int
    clean_fairness: Optional[Dict[str, Any]] = None
    faulted_fairness: Optional[Dict[str, Any]] = None
    fairness_drop_pp: Optional[float] = None
    p99_inflation_mean: Optional[float] = None
    completion_drop_pp: Optional[float] = None
    safe: Optional[bool] = None
    error: Optional[str] = None

    @property
    def applicable(self) -> bool:
        return self.n_ok > 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "plan": self.plan,
            "seeds": list(self.seeds),
            "n_ok": self.n_ok,
            "clean_fairness": self.clean_fairness,
            "faulted_fairness": self.faulted_fairness,
            "fairness_drop_pp": self.fairness_drop_pp,
            "p99_inflation_mean": self.p99_inflation_mean,
            "completion_drop_pp": self.completion_drop_pp,
            "safe": self.safe,
            "error": self.error,
        }

    def table_row(self) -> List[object]:
        if not self.applicable:
            reason = (self.error or "error").split(":", 1)[0]
            return [self.scheme, self.plan, "n/a", "n/a", "-", "-", "-", reason]
        return [
            self.scheme,
            self.plan,
            _ci_cell(self.clean_fairness),
            _ci_cell(self.faulted_fairness),
            f"{self.fairness_drop_pp:+.2f}",
            f"x{self.p99_inflation_mean:.2f}",
            f"{self.completion_drop_pp:+.2f}",
            "yes" if self.safe else "VIOLATED",
        ]


def _ci_cell(pooled: Optional[Dict[str, Any]]) -> str:
    if pooled is None:
        return "n/a"
    low, high = pooled["ci"]
    return f"{100 * pooled['ratio']:.2f} [{100 * low:.2f}, {100 * high:.2f}]"


@dataclass
class ChaosTable:
    """The full degradation matrix: per-cell results + aggregated rows."""

    schemes: List[str]
    plans: List[str]
    n_seeds: int
    base_seed: int
    scenario: str
    participants: int
    duration: float
    engine: str
    confidence: float
    cells: List[CellResult]
    entries: List[ChaosTableEntry]

    def digest(self) -> str:
        """SHA-256 over the ordered per-cell trade-ordering digests.

        Errors contribute their deterministic message, so an
        applicability change is just as visible as an ordering change.
        Identical for any ``jobs`` value — the pinned parallel-vs-serial
        contract.
        """
        parts = []
        for result in self.cells:
            if result.ok:
                parts.append(
                    f"{result.cell.label}|{result.clean_digest}|{result.faulted_digest}"
                )
            else:
                parts.append(f"{result.cell.label}|error|{result.error}")
        return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()

    def render(self, title: Optional[str] = None) -> str:
        headers = [
            "scheme",
            "plan",
            "clean fairness % [95% CI]",
            "faulted fairness % [95% CI]",
            "drop pp",
            "p99",
            "compl pp",
            "safe",
        ]
        if title is None:
            title = (
                f'"Table 5" — fairness degradation under chaos '
                f"({self.scenario}, {self.participants} MPs, "
                f"{self.duration:.0f} µs, {self.n_seeds} seeds, "
                f"base seed {self.base_seed})"
            )
        return render_table(headers, [e.table_row() for e in self.entries], title=title)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schemes": list(self.schemes),
            "plans": list(self.plans),
            "n_seeds": self.n_seeds,
            "base_seed": self.base_seed,
            "scenario": self.scenario,
            "participants": self.participants,
            "duration": self.duration,
            "engine": self.engine,
            "confidence": self.confidence,
            "entries": [entry.to_dict() for entry in self.entries],
            "cells": [cell.to_dict() for cell in self.cells],
            "table_digest": self.digest(),
        }


def build_cells(
    schemes: Sequence[str],
    plans: Sequence[str],
    n_seeds: int,
    base_seed: int = 0,
    scenario: str = "cloud",
    participants: int = 4,
    duration: float = 6_000.0,
    engine: str = "heap",
    feed_interval: float = 40.0,
    scheme_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[CellSpec]:
    """The cell list for a schemes × plans × seeds matrix, in row order.

    Per-scheme constructor overrides come from ``scheme_kwargs``; FBA
    gets ``FBADeployment.interval_for(duration)`` by default, the rule
    ``repro run`` and ``repro compare`` apply too.
    """
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    defaults: Dict[str, Dict[str, Any]] = {
        "fba": {"batch_interval": FBADeployment.interval_for(duration)}
    }
    for scheme, extra in sorted((scheme_kwargs or {}).items()):
        defaults.setdefault(scheme, {}).update(extra)
    cells: List[CellSpec] = []
    for scheme in schemes:
        for plan in plans:
            for index in range(n_seeds):
                cells.append(
                    CellSpec(
                        scheme=scheme,
                        plan=plan,
                        seed=cell_seed(base_seed, scheme, scenario, plan, index),
                        scenario=scenario,
                        participants=participants,
                        duration=duration,
                        engine=engine,
                        feed_interval=feed_interval,
                        scheme_kwargs=dict(defaults.get(scheme, {})),
                    )
                )
    return cells


def _aggregate(
    scheme: str,
    plan: str,
    group: List[CellResult],
    confidence: float,
) -> ChaosTableEntry:
    seeds = [result.cell.seed for result in group]
    ok = [result for result in group if result.ok]
    if not ok:
        return ChaosTableEntry(
            scheme=scheme,
            plan=plan,
            seeds=seeds,
            n_ok=0,
            error=group[0].error,
        )
    clean = pooled_fairness([r.clean_pairs for r in ok], confidence)
    faulted = pooled_fairness([r.faulted_pairs for r in ok], confidence)
    inflation = summarize_samples(
        [r.degradation["p99_inflation"] for r in ok], confidence
    )
    completion = summarize_samples(
        [r.degradation["completion_drop"] for r in ok], confidence
    )
    return ChaosTableEntry(
        scheme=scheme,
        plan=plan,
        seeds=seeds,
        n_ok=len(ok),
        clean_fairness=clean,
        faulted_fairness=faulted,
        fairness_drop_pp=100.0 * (clean["ratio"] - faulted["ratio"]),
        p99_inflation_mean=inflation.mean,
        completion_drop_pp=100.0 * completion.mean,
        safe=all(r.safe for r in ok),
        error=next((r.error for r in group if not r.ok), None),
    )


def chaos_table(
    schemes: Optional[Sequence[str]] = None,
    plans: Optional[Sequence[str]] = None,
    n_seeds: int = 3,
    base_seed: int = 0,
    scenario: str = "cloud",
    participants: int = 4,
    duration: float = 6_000.0,
    engine: str = "heap",
    feed_interval: float = 40.0,
    jobs: int = 1,
    mp_context: Optional[str] = None,
    scheme_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
    confidence: float = 0.95,
) -> ChaosTable:
    """Run the full degradation matrix and aggregate it into "Table 5".

    ``jobs`` selects the process-parallel backend; the result (and its
    :meth:`ChaosTable.digest`) is byte-identical for every job count.
    """
    schemes = list(schemes) if schemes is not None else available_schemes()
    plans = list(plans) if plans is not None else sorted(CHAOS_PLANS)
    for plan in plans:
        if plan not in CHAOS_PLANS:
            raise ValueError(
                f"unknown chaos plan {plan!r}; choose from {sorted(CHAOS_PLANS)}"
            )
    cells = build_cells(
        schemes,
        plans,
        n_seeds,
        base_seed=base_seed,
        scenario=scenario,
        participants=participants,
        duration=duration,
        engine=engine,
        feed_interval=feed_interval,
        scheme_kwargs=scheme_kwargs,
    )
    results = run_cells(cells, jobs=jobs, mp_context=mp_context)
    by_group: Dict[tuple, List[CellResult]] = {}
    for result in results:
        by_group.setdefault((result.cell.scheme, result.cell.plan), []).append(result)
    entries = [
        _aggregate(scheme, plan, by_group[(scheme, plan)], confidence)
        for scheme in schemes
        for plan in plans
    ]
    return ChaosTable(
        schemes=schemes,
        plans=plans,
        n_seeds=n_seeds,
        base_seed=base_seed,
        scenario=scenario,
        participants=participants,
        duration=duration,
        engine=engine,
        confidence=confidence,
        cells=results,
        entries=entries,
    )
