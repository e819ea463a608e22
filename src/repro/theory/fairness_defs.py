"""Executable forms of the paper's fairness definitions (§3).

These predicates turn Definitions 1 and 2 and the causality condition
(Eq. 4) into checkable properties of a run — used by the property-based
test suite to verify that DBO satisfies LRTF on every generated schedule,
and that violations reported by the metric really are violations of the
formal definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Optional, Tuple

from repro.metrics.fairness import causality_inversions
from repro.metrics.records import RunResult

__all__ = [
    "FairnessViolation",
    "response_time_fairness_violations",
    "lrtf_violations",
    "causality_condition_violations",
]


# Eq. 4: same-participant pairs ordered against submission order, one
# implementation on the run's trade columns.
causality_condition_violations = causality_inversions


@dataclass(frozen=True)
class FairnessViolation:
    """A concrete pair violating a fairness condition."""

    faster: Tuple[str, int]
    slower: Tuple[str, int]
    trigger_point: int
    faster_rt: float
    slower_rt: float
    faster_position: int
    slower_position: int

    def __str__(self) -> str:
        return (
            f"race {self.trigger_point}: {self.faster} (RT={self.faster_rt:.3f}) "
            f"ordered at {self.faster_position} behind {self.slower} "
            f"(RT={self.slower_rt:.3f}) at {self.slower_position}"
        )


def _race_violations(
    result: RunResult,
    horizon: Optional[float],
    min_margin: float = 0.0,
) -> List[FairnessViolation]:
    """Pairs violating C1 (horizon=None) or C2 (horizon=δ), race by race.

    ``min_margin`` excludes pairs whose response-time margin is below a
    threshold — used to account for RB clock drift ε, under which DBO
    only guarantees pairs with margin > ~2εδ (stamps are measured on
    clocks whose rates differ by up to 2ε).
    """
    violations: List[FairnessViolation] = []
    # A race holds completed trades only (`trades_by_trigger`).
    for race in result.trades_by_trigger().values():
        for a, b in permutations(race, 2):
            if (
                a.mp_id != b.mp_id
                and a.response_time < b.response_time
                and b.response_time - a.response_time > min_margin
                # C2 constrains only trades faster than the horizon.
                and (horizon is None or a.response_time < horizon)
                and a.position > b.position
            ):
                violations.append(
                    FairnessViolation(
                        faster=a.key,
                        slower=b.key,
                        trigger_point=a.trigger_point,
                        faster_rt=a.response_time,
                        slower_rt=b.response_time,
                        faster_position=a.position,
                        slower_position=b.position,
                    )
                )
    return violations


def response_time_fairness_violations(result: RunResult) -> List[FairnessViolation]:
    """Definition 1 (C1): all speed races, no horizon restriction."""
    return _race_violations(result, horizon=None)


def lrtf_violations(
    result: RunResult,
    delta: float,
    min_margin: float = 0.0,
) -> List[FairnessViolation]:
    """Definition 2 (C2): only pairs whose *faster* trade has RT < δ.

    DBO guarantees this list is empty for any run with lossless links,
    colocated RBs and drift-free RB clocks — the property-based suite
    asserts exactly that.  With drift rate ε, pass
    ``min_margin ≈ 2·ε·δ`` to exclude the hair-thin margins the paper's
    negligible-drift assumption waves away.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _race_violations(result, horizon=delta, min_margin=min_margin)
