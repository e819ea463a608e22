"""Fairness/latency degradation of a faulted run against its clean twin.

Chaos experiments (see :mod:`repro.experiments.chaos`) run every fault
plan twice: once clean and once with the injector armed, from the *same*
seed on *fresh* network specs.  This module reduces the pair to the
question the paper's failure discussion raises: how much fairness and
latency does each failure mode actually cost?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.metrics.fairness import FairnessReport, evaluate_fairness
from repro.metrics.latency import latency_stats
from repro.metrics.records import RunResult

__all__ = ["DegradationReport", "fairness_degradation"]

# Recovery/fault odometers worth surfacing next to the deltas.
_INTERESTING_COUNTERS = (
    "trades_lost_to_crash",
    "trades_retransmitted",
    "retransmits_abandoned",
    "ob_retransmits_ignored",
    "ob_failovers",
    "shard_failures",
    "rb_restarts",
    "batches_dropped_crashed",
    "straggler_ejections",
    "straggler_readmissions",
    # Probabilistic ordering: expected (theory-bounded) stamp inversions.
    "ordering_inversions",
    "packets_blackholed",
    "packets_dropped_in_burst",
    "gateway_stalls",
    "gateway_max_hold",
    "master_duplicates_ignored",
    "master_late_shard_messages",
    # Self-healing control plane: detection, escalation, and warm-up.
    "aggregator_failures",
    "feed_hiccups",
    "detector_suspects",
    "detector_suspects_cleared",
    "supervisor_probes",
    "supervisor_false_alarms",
    "supervisor_confirms",
    "supervisor_recoveries",
    "supervisor_unrecoverable",
    "trades_warmup_resent",
    "trades_reforwarded",
    "warmup_holds",
    "warmup_markers_received",
    "warmup_timeouts",
    "messages_dropped_dead",
)


@dataclass(frozen=True)
class DegradationReport:
    """How a fault plan moved fairness, latency, and completion.

    Carries each twin's whole :class:`FairnessReport` — the one evaluation
    of that run — so callers that also need the pair counts (the chaos
    matrix's pooled Wilson intervals) read them here.
    """

    scheme: str
    plan: str
    clean_fairness: FairnessReport
    faulted_fairness: FairnessReport
    clean_p99: float
    faulted_p99: float
    clean_completion: float
    faulted_completion: float
    fault_counters: Dict[str, float]

    @property
    def clean_fairness_pct(self) -> float:
        return self.clean_fairness.percent

    @property
    def faulted_fairness_pct(self) -> float:
        return self.faulted_fairness.percent

    @property
    def fairness_drop_pct(self) -> float:
        """Percentage points of pairwise fairness lost to the faults."""
        return self.clean_fairness_pct - self.faulted_fairness_pct

    @property
    def p99_inflation(self) -> float:
        """p99 trade-latency ratio faulted/clean (1.0 = unchanged)."""
        if self.clean_p99 <= 0:
            return float("inf") if self.faulted_p99 > 0 else 1.0
        return self.faulted_p99 / self.clean_p99

    @property
    def completion_drop(self) -> float:
        return self.clean_completion - self.faulted_completion

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "plan": self.plan,
            "clean_fairness_pct": self.clean_fairness_pct,
            "faulted_fairness_pct": self.faulted_fairness_pct,
            "fairness_drop_pct": self.fairness_drop_pct,
            "clean_p99": self.clean_p99,
            "faulted_p99": self.faulted_p99,
            "p99_inflation": self.p99_inflation,
            "clean_completion": self.clean_completion,
            "faulted_completion": self.faulted_completion,
            "completion_drop": self.completion_drop,
            "fault_counters": dict(sorted(self.fault_counters.items())),
        }


def fairness_degradation(
    clean: RunResult, faulted: RunResult, plan: str = "chaos"
) -> DegradationReport:
    """Reduce a clean/faulted run pair to a :class:`DegradationReport`.

    Both runs must come from the same scheme and seed (the chaos runner
    guarantees this); the clean twin is the counterfactual baseline.
    """
    if clean.scheme != faulted.scheme:
        raise ValueError(
            f"clean twin ran {clean.scheme!r} but faulted run is {faulted.scheme!r}"
        )
    counters = {
        name: faulted.counters[name]
        for name in _INTERESTING_COUNTERS
        if name in faulted.counters
    }
    return DegradationReport(
        scheme=faulted.scheme,
        plan=plan,
        clean_fairness=evaluate_fairness(clean),
        faulted_fairness=evaluate_fairness(faulted),
        clean_p99=latency_stats(clean).p99,
        faulted_p99=latency_stats(faulted).p99,
        clean_completion=clean.completion_ratio(),
        faulted_completion=faulted.completion_ratio(),
        fault_counters=counters,
    )
