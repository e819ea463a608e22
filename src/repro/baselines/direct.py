"""Direct delivery — the paper's baseline scheme (§6.1).

No release buffer, no ordering buffer: market data points are unicast to
each participant as generated, trades travel straight back to the CES and
are sequenced first-come-first-served.  Latency is as low as the network
allows; fairness is whatever the network's asymmetry happens to produce
(74.6 % on the paper's quiet testbed, 57.6 % in the cloud).

The FCFS rule is :class:`repro.ordering.direct.PassthroughPolicy` on the
shared :class:`repro.core.release_engine.ReleaseEngine`; this module is
pure topology.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import BaseDeployment
from repro.core.release_engine import ReleaseEngine
from repro.ordering.direct import PassthroughPolicy

__all__ = ["DirectDeployment"]


class DirectDeployment(BaseDeployment):
    """Direct delivery with FCFS sequencing at the CES."""

    scheme_name = "direct"

    def _build(self) -> None:
        me = self.ces.matching_engine
        self.release_engine = ReleaseEngine(
            PassthroughPolicy(),
            sink=lambda order, now: me.submit(order, forward_time=now),
        )
        self._build_unicast_legs(self.release_engine.on_trade)

    def _counters(self) -> Dict[str, float]:
        # Duplicates historically reached the (idempotent) matching
        # engine and still counted as sequenced — preserve that tally.
        engine = self.release_engine
        return {
            "trades_sequenced": float(
                engine.trades_released + engine.duplicates_ignored
            )
        }
