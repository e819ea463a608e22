"""Libra (Mavroudis & Melton, AFT'19) — randomized ordering (§2.1).

Libra tackles latency unfairness *stochastically*: instead of trusting
arrival order, the exchange collects trades over short windows and
assigns random priorities within each window.  When the network's latency
variability is bounded by roughly the window length, a faster participant
still lands in an earlier window more often than not, so it wins the race
more than 50 % of the time — but never with certainty, and the guarantee
degrades as latency variability grows past the window.

Market data is delivered directly (Libra does not touch the forward
path).

The hold-and-shuffle rule is the batch auction's
:class:`repro.ordering.fba.BatchAuctionPolicy` on the shared
:class:`repro.core.release_engine.ReleaseEngine`, closed every
``window`` µs instead of every auction interval; this module is pure
topology.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.baselines.base import BaseDeployment
from repro.core.release_engine import ReleaseEngine
from repro.ordering.fba import BatchAuctionPolicy

__all__ = ["LibraDeployment"]


class LibraDeployment(BaseDeployment):
    """A runnable Libra system.

    Parameters beyond the base:

    window:
        Randomization window in µs: trades arriving within the same
        window are forwarded in uniformly random order at window close.
    """

    scheme_name = "libra"

    def __init__(self, specs, window: float = 10.0, **kwargs) -> None:
        super().__init__(specs, **kwargs)
        if not 0 < window < math.inf:  # also rejects NaN
            raise ValueError("window must be positive and finite")
        self.window = window
        self.release_engine = ReleaseEngine(
            BatchAuctionPolicy(self.runtime.substream(78)),
            sink=lambda order, now: self.ces.matching_engine.submit(
                order, forward_time=now
            ),
        )
        self.windows_closed = 0

    def _build(self) -> None:
        self._build_unicast_legs(self.release_engine.on_trade)

    def _start(self, duration: float) -> None:
        self.engine.schedule_periodic(self.window, self.window, self._close_window)

    def _first_release(self) -> Tuple[float, str]:
        return self.window, "window"

    def _close_window(self) -> None:
        now = self.engine.now
        self.windows_closed += 1
        self.release_engine.on_boundary(now)

    def _counters(self) -> Dict[str, float]:
        return {"windows_closed": float(self.windows_closed)}
