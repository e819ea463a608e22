"""End-to-end latency metrics and the Max-RTT latency bound.

Latency of a trade (Eq. 8): the network time the trade's round trip spent
outside the participant's own thinking time,

    ``L(i, a) = F(i, a) - G(x) - RT(i, a)``,  where ``x = TP(i, a)``.

The Max-RTT bound (Theorem 3): any system achieving response-time
fairness must delay trade ``(i, a)`` until it could have heard from every
participant, so

    ``L_min(i, a) = max_j RTT(j, x, RT(i, a))``

where ``RTT(j, ·)`` combines the raw forward network latency of the
trigger point to participant ``j`` with the reverse latency of a
hypothetical trade submitted ``RT`` after ``j``'s raw delivery.  Like the
paper (Table 3 caption), we evaluate the bound from the packet timestamps
of the measured run plus latency-model queries for the hypothetical
reverse packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.metrics.records import RunResult

__all__ = [
    "percentile",
    "LatencyStats",
    "trade_latencies",
    "latency_stats",
    "max_rtt_bound_per_trade",
    "max_rtt_stats",
    "data_delivery_latencies",
]


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (``0 <= q <= 100``) of a sorted, non-empty
    sample: ``numpy.percentile`` with its default linear method, bit for
    bit, including the interpolation from the upper neighbour when the
    fraction is at least one half."""
    last = len(ordered) - 1
    index = last * (q / 100)
    if index >= last:
        return float(ordered[last])
    below = math.floor(index)
    low, high = ordered[below], ordered[below + 1]
    fraction = index - below
    diff = high - low
    if fraction >= 0.5:
        return float(high - diff * (1 - fraction))
    return float(low + diff * fraction)


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample (all µs)."""

    count: int
    avg: float
    p50: float
    p99: float
    p999: float
    p9999: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
        ordered = sorted(map(float, samples))
        return cls(
            count=len(ordered),
            avg=math.fsum(ordered) / len(ordered),
            p50=percentile(ordered, 50),
            p99=percentile(ordered, 99),
            p999=percentile(ordered, 99.9),
            p9999=percentile(ordered, 99.99),
            minimum=ordered[0],
            maximum=ordered[-1],
        )

    def row(self) -> str:
        """Fixed-width "avg p50 p99 p999" row used by the table printers."""
        return f"{self.avg:8.2f} {self.p50:8.2f} {self.p99:8.2f} {self.p999:8.2f}"


def trade_latencies(result: RunResult) -> List[float]:
    """Eq. 8 latency for every completed trade in the run."""
    trades = result.trades
    triggers, response_times = trades.trigger_points, trades.response_times
    forward_times = trades.forward_times
    generation_times = result.generation_times
    latencies: List[float] = []
    for row in result.completed_rows:
        generation = generation_times.get(triggers[row])
        if generation is None:
            continue
        latencies.append(forward_times[row] - generation - response_times[row])
    return latencies


def latency_stats(result: RunResult) -> LatencyStats:
    """Summary of Eq. 8 latencies over a run."""
    return LatencyStats.from_samples(trade_latencies(result))


def max_rtt_bound_per_trade(result: RunResult) -> List[float]:
    """Theorem 3's ``L_min`` for each completed trade.

    Requires ``raw_arrivals`` (forward packet timestamps) and
    ``reverse_latency_at`` (reverse-path model queries); trades whose
    trigger never reached some participant are skipped.
    """
    if result.reverse_latency_at is None:
        raise ValueError("run result carries no reverse-path latency accessor")
    trades = result.trades
    triggers, response_times = trades.trigger_points, trades.response_times
    bounds: List[float] = []
    participants = result.participant_ids
    for row in result.completed_rows:
        x = triggers[row]
        send = result.network_send_times.get(x)
        if send is None:
            continue
        worst = None
        for mp_id in participants:
            raw_arrival = result.raw_arrivals.get(mp_id, {}).get(x)
            if raw_arrival is None:
                worst = None
                break
            forward = raw_arrival - send
            response_at = raw_arrival + response_times[row]
            reverse = result.reverse_latency_at(mp_id, response_at)
            rtt = forward + reverse
            if worst is None or rtt > worst:
                worst = rtt
        if worst is not None:
            bounds.append(worst)
    return bounds


def max_rtt_stats(result: RunResult) -> LatencyStats:
    """Summary of the Max-RTT bound over a run (the "Max-RTT" table row)."""
    return LatencyStats.from_samples(max_rtt_bound_per_trade(result))


def data_delivery_latencies(result: RunResult, mp_id: str) -> Dict[int, float]:
    """``D(i, x) - G(x)`` per point for one participant (Figure 7's y-axis)."""
    deliveries = result.delivery_times.get(mp_id, {})
    return {
        point_id: delivered - result.generation_times[point_id]
        for point_id, delivered in sorted(deliveries.items())
        if point_id in result.generation_times
    }
