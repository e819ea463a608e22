"""Experiment runner: build a scheme on a scenario, run it, summarize it.

The runner is the one-stop API the benchmarks, tables and examples use:

>>> from repro.experiments import run_scheme, summarize
>>> from repro.experiments.scenarios import cloud_specs
>>> result = run_scheme("dbo", cloud_specs(4), duration=4_000.0)
>>> summary = summarize(result)
>>> summary.fairness.ratio
1.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.base import BaseDeployment, NetworkSpec
from repro.experiments.registry import get_builder
from repro.metrics.fairness import FairnessReport, evaluate_fairness
from repro.metrics.latency import LatencyStats, latency_stats, max_rtt_stats
from repro.metrics.records import RunResult
from repro.metrics.report import render_table

__all__ = [
    "build_deployment",
    "run_scheme",
    "SchemeSummary",
    "summarize",
    "comparison_table",
]

def build_deployment(scheme: str, specs: Sequence[NetworkSpec], **kwargs) -> BaseDeployment:
    """Construct (but do not run) a deployment by scheme name.

    Resolution and Runtime threading go through the scheme registry:
    ``seed``/``engine``/``runtime`` kwargs configure the simulation
    context, everything else reaches the deployment constructor.
    """
    return get_builder(scheme).build(specs, **kwargs)


def run_scheme(
    scheme: str,
    specs: Sequence[NetworkSpec],
    duration: float,
    drain: Optional[float] = None,
    **kwargs,
) -> RunResult:
    """Build and run one scheme; returns its :class:`RunResult`."""
    deployment = build_deployment(scheme, specs, **kwargs)
    return deployment.run(duration=duration, drain=drain)


@dataclass
class SchemeSummary:
    """Fairness + latency digest of one run — one table row."""

    scheme: str
    fairness: FairnessReport
    latency: LatencyStats
    max_rtt: Optional[LatencyStats]
    completion: float
    counters: Dict[str, float]
    channels: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def table_row(self) -> List[object]:
        return [
            self.scheme,
            self.fairness.percent if self.fairness.total_pairs else "n/a",
            self.latency.avg,
            self.latency.p50,
            self.latency.p99,
            self.latency.p999,
        ]


def summarize(result: RunResult, with_bound: bool = True) -> SchemeSummary:
    """Reduce a run to the digest every paper table reports."""
    bound: Optional[LatencyStats] = None
    if with_bound and result.reverse_latency_at is not None:
        bound = max_rtt_stats(result)
    return SchemeSummary(
        scheme=result.scheme,
        fairness=evaluate_fairness(result),
        latency=latency_stats(result),
        max_rtt=bound,
        completion=result.completion_ratio(),
        counters=dict(result.counters),
        channels={name: dict(c) for name, c in sorted(result.channels.items())},
    )


def comparison_table(summaries: Sequence[SchemeSummary], title: Optional[str] = None) -> str:
    """The paper's table layout: fairness % and latency percentiles.

    A ``Max-RTT`` row (Theorem 3 bound) is inserted after the first
    summary that carries one, mirroring Tables 2 and 3.
    """
    headers = ["scheme", "fairness %", "avg", "p50", "p99", "p999"]
    rows: List[List[object]] = []
    bound_row: Optional[List[object]] = None
    for summary in summaries:
        rows.append(summary.table_row())
        if bound_row is None and summary.max_rtt is not None and summary.scheme == "dbo":
            bound = summary.max_rtt
            bound_row = ["max-rtt", "-", bound.avg, bound.p50, bound.p99, bound.p999]
    if bound_row is not None:
        rows.insert(min(1, len(rows)), bound_row)
    return render_table(headers, rows, title=title)
