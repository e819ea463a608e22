"""Policy-conformance suite: every release rule obeys the engine contract.

Each scheme is driven through the engine it ships on — direct, cloudex,
fba and libra as an :class:`~repro.ordering.policy.OrderingPolicy` on
:class:`~repro.core.release_engine.ReleaseEngine`; dbo and prob through
the production :class:`~repro.core.ordering_buffer.OrderingBuffer` /
:class:`~repro.core.ordering_buffer.ProbOrderingBuffer`, behind the
test-local :class:`BufferDriver` that renames their entry points — and
this suite pins the contract every one of them must satisfy:

* **no double release** — a key reaches the sink exactly once, no matter
  how duplicates, timed wakes, boundaries and flushes interleave;
* **conservation** — after a final flush nothing is pending and every
  admitted key was released;
* **per-source FIFO** — policies that promise it (all but the batch
  shufflers) release one participant's trades in submission order;
* **monotone watermarks** — the delivery-clock policy's per-participant
  watermarks never regress, and the probabilistic policy accounts for
  every stamp regression it lets through;
* **deterministic tie-break** — stamp ties release in ``(mp_id,
  trade_seq)`` order.

Hypothesis drives protocol-consistent interleavings (per-participant
stamps monotone, FIFO per source — what the network guarantees).
"""

from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.ordering_buffer import OrderingBuffer, ProbOrderingBuffer
from repro.core.release_engine import ReleaseEngine
from repro.exchange.messages import Heartbeat, Side, TaggedTrade, TradeOrder
from repro.ordering import (
    BatchAuctionPolicy,
    OrderingPolicy,
    PassthroughPolicy,
    SyncDeadlinePolicy,
)
from repro.sim.clocks import SynchronizedClock
from repro.sim.randomness import SubstreamCounter

MP_IDS = ["mp0", "mp1", "mp2"]

# Schemes whose policy promises per-source FIFO release (the batch
# shufflers randomize *within* a window by design).
FIFO_SCHEMES = ("direct", "cloudex", "dbo", "prob")
ALL_SCHEMES = ("direct", "cloudex", "fba", "libra", "dbo", "prob")
# Schemes on the delivery-clock plane: tagged trades, heartbeats, and the
# production OrderingBuffer instead of an OrderingPolicy.
CLOCK_SCHEMES = ("dbo", "prob")


def make_policy(scheme: str) -> OrderingPolicy:
    if scheme == "direct":
        return PassthroughPolicy()
    if scheme == "cloudex":
        return SyncDeadlinePolicy(
            c2=5.0, clock=SynchronizedClock(error_bound=0.0, seed=11)
        )
    if scheme == "fba":
        return BatchAuctionPolicy(SubstreamCounter(7))
    if scheme == "libra":
        # Libra's rule is the batch auction's over shorter windows.
        return BatchAuctionPolicy(SubstreamCounter(8))
    raise AssertionError(scheme)


class BufferDriver:
    """The production delivery-clock buffers under ``ReleaseEngine``'s names."""

    def __init__(self, buffer: OrderingBuffer) -> None:
        self.buffer = buffer
        self.on_trade = buffer.on_tagged_trade
        self.flush = buffer.flush

    def on_watermark(self, mp: str, stamp: DeliveryClockStamp, now: float) -> None:
        self.buffer.on_heartbeat(Heartbeat(mp, stamp), now - 0.1, now)

    def on_boundary(self, now: float) -> None:
        pass

    pending_count = property(lambda self: self.buffer.queue_depth)
    trades_released = property(lambda self: self.buffer.trades_released)
    duplicates_ignored = property(lambda self: self.buffer.retransmits_ignored)


def make_engine(scheme: str, sink, fake: "FakeEngine"):
    """The engine ``scheme`` runs on in production, releasing into ``sink``."""
    if scheme == "dbo":
        return BufferDriver(OrderingBuffer(participants=list(MP_IDS), sink=sink))
    if scheme == "prob":
        return BufferDriver(
            ProbOrderingBuffer(list(MP_IDS), engine=fake, horizon=3.0, sink=sink)
        )
    return ReleaseEngine(make_policy(scheme), sink=sink, engine=fake)


def make_item(scheme: str, mp: str, seq: int, stamp_t: Tuple[int, float], now: float):
    order = TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0)
    if scheme == "cloudex":
        # Reverse-channel shape: (order, sync submission stamp).
        return (order, now)
    if scheme in CLOCK_SCHEMES:
        return TaggedTrade(trade=order, clock=DeliveryClockStamp(*stamp_t))
    return order


class FakeEngine:
    """Minimal event engine: collects timed wakes, fires them in order."""

    def __init__(self) -> None:
        self.now = 0.0
        self._wakes: List[Tuple[float, int, int, Any]] = []
        self._n = 0

    def schedule_at(self, when: float, fn, priority: int = 0, args=()) -> None:
        self._n += 1
        self._wakes.append((when, priority, self._n, (fn, args)))

    def run_until(self, t: float) -> None:
        self._wakes.sort()
        while self._wakes and self._wakes[0][0] <= t:
            when, _, _, (fn, args) = self._wakes.pop(0)
            self.now = max(self.now, when)
            fn(*args)
            self._wakes.sort()
        self.now = max(self.now, t)


@st.composite
def op_sequence(draw):
    """A protocol-consistent interleaving of trades/heartbeats/boundaries.

    Per participant: delivery-clock stamps monotone, trade sequence
    numbers increasing — what FIFO channels deliver.  Roughly one in
    five trades is re-sent (a retransmission duplicate).
    """
    ops = []
    point = {mp: 0 for mp in MP_IDS}
    elapsed = {mp: 0.0 for mp in MP_IDS}
    seq = {mp: 0 for mp in MP_IDS}
    sent: List[Tuple[str, int, Tuple[int, float], float]] = []
    t = 0.0
    for _ in range(draw(st.integers(8, 40))):
        t += draw(st.floats(min_value=0.1, max_value=4.0))
        kind = draw(
            st.sampled_from(["trade", "trade", "trade", "hb", "boundary", "dup"])
        )
        mp = draw(st.sampled_from(MP_IDS))
        if draw(st.booleans()):
            elapsed[mp] += draw(st.floats(min_value=0.01, max_value=6.0))
        else:
            point[mp] += draw(st.integers(1, 2))
            elapsed[mp] = draw(st.floats(min_value=0.0, max_value=1.0))
        stamp_t = (point[mp], elapsed[mp])
        if kind == "trade":
            ops.append(("trade", mp, seq[mp], stamp_t, t))
            sent.append((mp, seq[mp], stamp_t, t))
            seq[mp] += 1
        elif kind == "dup" and sent:
            ops.append(("trade",) + draw(st.sampled_from(sent))[:3] + (t,))
        elif kind == "hb":
            ops.append(("hb", mp, 0, stamp_t, t))
        else:
            ops.append(("boundary", mp, 0, stamp_t, t))
    # Everyone reports a final, maximal watermark so the delivery-clock
    # policy can prove every queued trade safe before the flush.
    t += 1.0
    top = (max(point.values()) + 1, 0.0)
    for mp in MP_IDS:
        ops.append(("hb", mp, 0, top, t))
    return ops


def drive(scheme: str, ops):
    fake = FakeEngine()
    released: List[Any] = []
    engine = make_engine(scheme, lambda item, now: released.append(item), fake)
    admitted: Dict[Tuple[str, int], int] = {}
    for kind, mp, seq, stamp_t, t in ops:
        fake.run_until(t)
        if kind == "trade":
            item = make_item(scheme, mp, seq, stamp_t, t)
            admitted[(mp, seq)] = admitted.get((mp, seq), 0) + 1
            engine.on_trade(item, t - 0.1, t)
        elif kind == "hb":
            if scheme in CLOCK_SCHEMES:
                engine.on_watermark(mp, DeliveryClockStamp(*stamp_t), t)
        else:
            engine.on_boundary(t)
    fake.run_until(fake.now + 1_000.0)
    engine.flush(fake.now)
    return engine, released, admitted


def released_key(scheme: str, item) -> Tuple[str, int]:
    if scheme == "cloudex":
        return item[0].key
    if scheme in CLOCK_SCHEMES:
        return item.trade.key
    return item.key


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@given(op_sequence())
@settings(max_examples=40, deadline=None)
def test_policy_conformance(scheme, ops):
    engine, released, admitted = drive(scheme, ops)
    keys = [released_key(scheme, item) for item in released]

    # No double release, ever.
    assert len(keys) == len(set(keys))

    # Conservation: every admitted key out exactly once, nothing stuck.
    assert set(keys) == set(admitted)
    if scheme not in CLOCK_SCHEMES:
        assert engine.policy.pending_count() == 0
    assert engine.pending_count == 0
    assert engine.trades_released == len(admitted)
    assert engine.duplicates_ignored == sum(admitted.values()) - len(admitted)

    # Per-source FIFO for the policies that promise it.
    if scheme in FIFO_SCHEMES:
        for mp in MP_IDS:
            seqs = [seq for mp_id, seq in keys if mp_id == mp]
            assert seqs == sorted(seqs)

    # Probabilistic accounting: every stamp regression the policy let
    # through is counted — none hidden, none invented.
    if scheme == "prob":
        stamps = [item.clock.as_tuple() for item in released]
        regressions = 0
        max_seen = None
        for stamp in stamps:
            if max_seen is not None and stamp < max_seen:
                regressions += 1
            else:
                max_seen = stamp
        assert engine.buffer.horizon_policy.ordering_inversions == regressions


@given(op_sequence())
@settings(max_examples=40, deadline=None)
def test_delivery_clock_watermarks_monotone(ops):
    """The DBO policy's per-participant watermarks never regress."""
    engine = make_engine("dbo", lambda item, now: None, FakeEngine())
    last: Dict[str, Tuple[int, float]] = {}
    for kind, mp, seq, stamp_t, t in ops:
        if kind == "trade":
            engine.on_trade(make_item("dbo", mp, seq, stamp_t, t), t - 0.1, t)
        elif kind == "hb":
            engine.on_watermark(mp, DeliveryClockStamp(*stamp_t), t)
        for mp_id, value in engine.buffer.policy._wm.items():
            assert value >= last.get(mp_id, value)
            last[mp_id] = value


@pytest.mark.parametrize("scheme", ["dbo", "prob", "cloudex"])
def test_equal_stamp_ties_release_in_key_order(scheme):
    """Stamp ties break deterministically on (mp_id, trade_seq)."""
    released: List[Any] = []
    engine = make_engine(scheme, lambda item, now: released.append(item), FakeEngine())
    stamp_t = (3, 1.5)
    # Admit in an order that disagrees with the key order.
    for mp, seq in [("mp2", 0), ("mp0", 1), ("mp1", 0), ("mp0", 0)]:
        if scheme == "cloudex":
            item = (TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0), 10.0)
        else:
            item = TaggedTrade(
                trade=TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0),
                clock=DeliveryClockStamp(*stamp_t),
            )
        engine.on_trade(item, 0.0, 1.0)
    engine.flush(1_000.0)
    assert [released_key(scheme, item) for item in released] == [
        ("mp0", 0),
        ("mp0", 1),
        ("mp1", 0),
        ("mp2", 0),
    ]
