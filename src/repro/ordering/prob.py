"""Probabilistic fair ordering — release after a confidence horizon *h*.

"Beyond Lamport": instead of *proving* that no smaller-stamped trade is
still in flight (DBO's watermark rule, which costs a heartbeat round),
hold each trade for a fixed horizon ``h`` after arrival and then release
in stamp order.  If every competing trade's arrival lag (true arrival
minus stamp-implied send) falls within a window of width ``S``, a trade
can only be overtaken when a rival's lag exceeds its own by more than
``h`` — which for ``h ≥ S`` never happens, and for smaller ``h`` happens
with probability bounded by
:func:`repro.theory.bounds.prob_ordering_bound`.

The payoff is latency: release waits ``h`` (microseconds) instead of a
full heartbeat round, so p99 release latency drops below DBO's while
the ordering stays correct with high probability.  Inversions that do
occur are *measured*, not hidden: a release whose stamp undercuts the
running maximum is counted as an ``ordering_inversion``, and the
invariant auditor books them under the same name instead of flagging
the run unsafe (the scheme's contract is probabilistic by design).

This module is the horizon rule's *decision state* — when each held
trade falls due, and what has been released so far — the counterpart of
:class:`repro.ordering.dbo.DeliveryClockPolicy`.  The heap, dedup and
recovery machinery driving it is
:class:`repro.core.ordering_buffer.ProbOrderingBuffer`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

__all__ = ["ProbabilisticPolicy"]

TradeKey = Tuple[str, int]
WatermarkTuple = Tuple[int, float]


class ProbabilisticPolicy:
    """Hold for ``horizon`` µs after arrival; release in stamp order."""

    name = "prob"

    def __init__(self, horizon: float) -> None:
        self.horizon = self.checked_horizon(horizon)
        self._due: Dict[TradeKey, float] = {}
        self._max_released_t: Optional[WatermarkTuple] = None
        self.ordering_inversions = 0

    @staticmethod
    def checked_horizon(horizon: float) -> float:
        """``horizon`` as a float, or ``ValueError`` if it cannot be a hold."""
        if not 0 <= horizon < math.inf:  # also rejects NaN
            raise ValueError("horizon must be non-negative and finite")
        return float(horizon)

    def hold(self, key: TradeKey, arrival: float) -> float:
        """Start ``key``'s hold; returns the time it falls due."""
        due = arrival + self.horizon
        self._due[key] = due
        return due

    def is_due(self, key: TradeKey, now: float) -> bool:
        return self._due.get(key, now) <= now + 1e-9

    def note_release(self, key: TradeKey, stamp_t: WatermarkTuple) -> None:
        """Book a release: a stamp below the running maximum is an inversion."""
        self._due.pop(key, None)
        if self._max_released_t is not None and stamp_t < self._max_released_t:
            self.ordering_inversions += 1
        else:
            self._max_released_t = stamp_t

    def reset(self) -> None:
        """Forget every pending hold (OB crash); what was released stays."""
        self._due.clear()

    def carry_over_counters(self, predecessor: "ProbabilisticPolicy") -> None:
        self.ordering_inversions += predecessor.ordering_inversions
        prior_max = predecessor._max_released_t
        if prior_max is not None and (
            self._max_released_t is None or prior_max > self._max_released_t
        ):
            self._max_released_t = prior_max
