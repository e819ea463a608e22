"""Ground-truth records produced by a scheme run.

Every deployment (DBO, Direct, CloudEx, FBA, Libra) reduces its run to a
:class:`RunResult` holding the event timestamps of Table 1 — ``G(x)``,
``D(i,x)``, ``S(i,a)``, ``F(i,a)``, ``O(i,a)`` — plus the raw network
timestamps needed for the Max-RTT bound of Theorem 3.  All metrics and
every benchmark table are pure functions of this record, so schemes are
compared on identical footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["TradeRecord", "RunResult"]


@dataclass(slots=True)
class TradeRecord:
    """Per-trade ground truth joined with the scheme's output.

    ``forward_time`` (``F``) and ``position`` (``O``) are ``None`` for
    trades still in flight when the run ended; metrics skip those.
    """

    mp_id: str
    trade_seq: int
    trigger_point: int
    response_time: float
    submission_time: float
    forward_time: Optional[float] = None
    position: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.mp_id, self.trade_seq)

    @property
    def completed(self) -> bool:
        return self.forward_time is not None and self.position is not None


@dataclass
class RunResult:
    """Everything a metric needs from one scheme run.

    Attributes
    ----------
    scheme:
        Scheme label ("dbo", "direct", "cloudex", ...).
    trades:
        One record per submitted trade.
    generation_times:
        ``G(x)`` per point id.
    network_send_times:
        When the packet carrying point ``x`` entered the network (equals
        ``G(x)`` for unbatched schemes; the batch close time under DBO).
    raw_arrivals:
        Per participant, per point: raw network arrival time at the RB /
        MP boundary — before any release-buffer hold.  These are the
        "packet timestamps from the experiment trace" the paper uses to
        compute the Max-RTT bound.  A deployment hands over its
        recorders' :class:`~repro.sim.dense.PointSeries` (8 bytes per
        point); a loaded result carries plain dicts.
    delivery_times:
        ``D(i, x)``: when the point was actually delivered to the MP, in
        the same form.
    reverse_latency_at:
        ``(mp_id, t) -> one-way MP→CES latency for a packet sent at t``;
        lets the bound evaluate hypothetical response packets.
    duration:
        Length of the generation window (µs).
    counters:
        Scheme-specific odometers (heartbeats processed, max queue depth,
        stragglers, ...), for reports and ablation benchmarks.
    channels:
        Per-channel message-plane odometers: ``{channel name: {sent,
        delivered, dropped, duplicated, deduped, [lost]}}`` from the
        deployment's :class:`~repro.net.transport.Transport`.
    """

    scheme: str
    trades: List[TradeRecord]
    generation_times: Dict[int, float]
    network_send_times: Dict[int, float]
    raw_arrivals: Dict[str, Mapping[int, float]]
    delivery_times: Dict[str, Mapping[int, float]]
    reverse_latency_at: Optional[Callable[[str, float], float]] = None
    duration: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    channels: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def participant_ids(self) -> List[str]:
        return sorted(self.raw_arrivals)

    @property
    def completed_trades(self) -> List[TradeRecord]:
        return [t for t in self.trades if t.completed]

    def trades_by_trigger(self) -> Dict[int, List[TradeRecord]]:
        """Group completed trades into speed races by trigger point."""
        races: Dict[int, List[TradeRecord]] = {}
        for trade in self.trades:
            if not trade.completed:
                continue
            races.setdefault(trade.trigger_point, []).append(trade)
        return races

    def completion_ratio(self) -> float:
        """Fraction of submitted trades that reached the matching engine."""
        if not self.trades:
            return 1.0
        return len(self.completed_trades) / len(self.trades)
