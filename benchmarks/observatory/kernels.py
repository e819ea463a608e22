"""Isolated kernels: one layer's hot loop on synthetic input, no simulator
around it.  They exist so a layer-local change has a number that moves
before — and independently of — any end-to-end metric.  They are
workload-independent: the observatory runs them once per run and copies the
rows into every workload's per-layer table; only a lone ``--trace 1`` unit,
which must emit every declared row by itself, runs them again.

Each kernel returns ``(work units, wall seconds)`` of its best-of-three:
the fastest repetition is the least disturbed one, and a kernel has no
noise of its own to average.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

__all__ = ["run_kernels", "audit_overhead_ratio"]

_REPEATS = 3


def _best(kernel: Callable[[], Tuple[int, float]]) -> Tuple[int, float]:
    return min((kernel() for _ in range(_REPEATS)), key=lambda sample: sample[1] / max(sample[0], 1))


def _engine_events(kind: str, scale: int) -> Tuple[int, float]:
    """A fixed mix on one engine kind: 64 periodic timers (the heartbeat
    shape) plus 512 self-rescheduling one-shot chains (the delivery shape)."""
    from repro.sim.engine import make_engine

    engine = make_engine(kind)
    state = [12345]

    def hop() -> None:
        # A fixed LCG spreads the one-shot delays over 1..32 µs.
        state[0] = (state[0] * 1103515245 + 12345) & 0x7FFFFFFF
        engine.schedule_after(1.0 + (state[0] >> 8) % 32, hop, 0)

    def tick() -> None:
        pass

    for index in range(64):
        engine.schedule_periodic(float(index % 20), 20.0, tick)
    for index in range(512):
        engine.schedule_at(float(index % 16), hop, 0)
    start = time.perf_counter()
    engine.run(until=60.0 * scale)
    return engine.events_processed, time.perf_counter() - start


def _ordering_buffer(scale: int) -> Tuple[int, float]:
    """Heartbeats (with a trade per participant every other point) through
    a flat 64-participant ``OrderingBuffer``."""
    from repro.core.delivery_clock import DeliveryClockStamp
    from repro.core.ordering_buffer import OrderingBuffer
    from repro.exchange.messages import Heartbeat, TaggedTrade, TradeOrder

    mps = [f"mp{index}" for index in range(64)]
    ob = OrderingBuffer(participants=mps, sink=lambda tagged, now: None)
    points = 12 * scale
    start = time.perf_counter()
    for point in range(points):
        now = float(point)
        if point % 2 == 0:
            for index, mp in enumerate(mps):
                order = TradeOrder(mp_id=mp, trade_seq=point)
                stamp = DeliveryClockStamp(point, float(index % 20))
                ob.on_tagged_trade(TaggedTrade(trade=order, clock=stamp), 0.0, now)
        for mp in mps:
            ob.on_heartbeat(Heartbeat(mp_id=mp, clock=DeliveryClockStamp(point, 25.0)), 0.0, now + 0.5)
    wall = time.perf_counter() - start
    if ob.trades_released != 64 * ((points + 1) // 2):
        raise AssertionError("ordering-buffer kernel released the wrong number of trades")
    return ob.heartbeats_processed, wall


def _order_book(scale: int) -> Tuple[int, float]:
    """Alternating maker/taker flow across five price levels."""
    from repro.exchange.messages import Side, TradeOrder
    from repro.exchange.order_book import LimitOrderBook
    from repro.sim.randomness import SubstreamCounter

    prices = [9.5, 9.75, 10.0, 10.25, 10.5]
    stream = SubstreamCounter(2)
    orders = [
        TradeOrder(
            mp_id="mp",
            trade_seq=seq,
            side=Side.BUY if stream.next_unit() < 0.5 else Side.SELL,
            price=prices[stream.next_int(0, len(prices) - 1)],
            quantity=1 + stream.next_int(0, 4),
        )
        for seq in range(400 * scale)
    ]
    book = LimitOrderBook()
    start = time.perf_counter()
    for order in orders:
        book.submit(order)
    wall = time.perf_counter() - start
    if not book.executions:
        raise AssertionError("order-book kernel crossed nothing")
    return len(orders), wall


def _fairness(scale: int) -> Tuple[int, float]:
    """``evaluate_fairness`` over synthetic races of 256 competitors."""
    from repro.metrics.fairness import evaluate_fairness
    from repro.metrics.records import RunResult, TradeRecord

    competitors = 256
    trades = [
        TradeRecord(
            mp_id=f"mp{index}",
            trade_seq=race,
            trigger_point=race,
            response_time=float((index * 7919) % competitors) + 0.25,
            submission_time=0.0,
            forward_time=1.0,
            position=race * competitors + (index * 7919) % competitors,
        )
        for race in range(max(1, scale // 5))
        for index in range(competitors)
    ]
    result = RunResult(
        scheme="kernel", trades=trades, generation_times={}, network_send_times={},
        raw_arrivals={}, delivery_times={},
    )
    start = time.perf_counter()
    report = evaluate_fairness(result)
    wall = time.perf_counter() - start
    if report.correct_pairs != report.total_pairs:
        raise AssertionError("fairness kernel misjudged a perfectly ordered race")
    return report.total_pairs, wall


def audit_overhead_ratio(scale: int) -> float:
    """Run wall of one fixed clean cell with the ``InvariantAuditor``
    attached ÷ without.  The auditor installs its own closures inside the
    deployment, so it is measured by difference, not by span."""
    from repro.experiments.runner import build_deployment
    from repro.experiments.scenarios import cloud_specs
    from repro.faults.auditor import InvariantAuditor

    def run_wall(audited: bool) -> float:
        deployment = build_deployment("dbo", cloud_specs(8, seed=3), seed=3)
        if audited:
            InvariantAuditor().attach(deployment)
        start = time.perf_counter()
        deployment.run(duration=400.0 * scale)
        return time.perf_counter() - start

    # Back-to-back pairs, so slow drift of the box cancels inside each ratio.
    return statistics.median(run_wall(True) / run_wall(False) for _ in range(5))


def run_kernels(engine_kinds: Tuple[str, ...], scale: int) -> Dict[str, float]:
    """Every kernel row, keyed by its per-layer metric name.

    ``scale`` sizes the synthetic inputs (full: 50, smoke: 5).  An engine
    kind this tree's ``make_engine`` no longer accepts reads 0, so deleting
    an engine zeroes a declared row instead of breaking the harness.
    """
    from repro.sim.engine import ENGINE_FACTORIES

    rows: Dict[str, float] = {}
    for kind in engine_kinds:
        if kind in ENGINE_FACTORIES:
            events, wall = _best(lambda kind=kind: _engine_events(kind, scale))
            rows[f"sim.engine.{kind}.events_per_s"] = events / wall
        else:
            rows[f"sim.engine.{kind}.events_per_s"] = 0.0
    heartbeats, wall = _best(lambda: _ordering_buffer(scale))
    rows["core.ordering_buffer.kernel_us_per_heartbeat"] = 1e6 * wall / heartbeats
    orders, wall = _best(lambda: _order_book(scale))
    rows["exchange.order_book.kernel_orders_per_s"] = orders / wall
    pairs, wall = _best(lambda: _fairness(scale))
    rows["metrics.fairness.kernel_pairs_per_s"] = pairs / wall
    rows["faults.audit_overhead_ratio"] = audit_overhead_ratio(scale)
    return rows
