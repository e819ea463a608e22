"""What a run keeps: one key and one record per trade, slotted per-trade
and per-participant records, and result series handed over, not copied.

The structural checks come first: they hold on every interpreter.  The
byte bounds are ``tracemalloc`` readings of what a finished run still
holds, taken as the difference between two run sizes so set-up and
import costs cancel; each bound leaves at least 25 % headroom over the
reading on CPython 3.11 (494 B per trade, 10 996 B per participant).
"""

import copy
import gc
import tracemalloc

import pytest

from repro.baselines.base import default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.release_buffer import ReleaseBuffer
from repro.experiments.registry import get_builder
from repro.sim.runtime import Runtime

# Retained bytes per trade on a flat DBO run (the trade's order, key,
# RB tag, ME index entry, ForwardedTrade and TradeRecord; the OB release
# log holds no per-trade object), and per participant on an aggregation
# tree.
BYTES_PER_TRADE = 620
BYTES_PER_PARTICIPANT = 13_735


def build(scheme="dbo", n=4, seed=7, **kwargs):
    specs = default_network_specs(n, seed=seed)
    return get_builder(scheme).build(specs, runtime=Runtime.create(seed=seed), **kwargs)


@pytest.fixture(scope="module")
def flat_run():
    deployment = build(n=4)
    return deployment, deployment.run(duration=2000.0, drain=2000.0)


def stored(container, key):
    """The object ``container`` itself holds that equals ``key``."""
    return next(item for item in container if item == key)


class TestStructure:
    def test_per_trade_records_are_slotted(self, flat_run):
        deployment, result = flat_run
        forwarded = deployment.ces.matching_engine.forwarded
        assert result.trades and forwarded
        assert not hasattr(result.trades[0], "__dict__")
        assert not hasattr(forwarded[0], "__dict__")

    @pytest.mark.parametrize("kwargs", [{}, {"sync_target_c1": 30.0}], ids=["plain", "sync"])
    def test_release_buffers_are_slotted(self, kwargs):
        deployment = build(n=2, **kwargs)
        deployment.run(duration=500.0, drain=500.0)
        for rb in deployment.release_buffers:
            assert isinstance(rb, ReleaseBuffer)
            assert not hasattr(rb, "__dict__")
            with pytest.raises(AttributeError):
                rb.ad_hoc = 1

    def test_one_key_object_per_trade(self, flat_run):
        deployment, _ = flat_run
        released = deployment.ordering_buffer._released
        index = deployment.ces.matching_engine._by_key
        forwarded = deployment.ces.matching_engine.forwarded
        for record in forwarded:
            key = record.order.key
            assert key == (record.order.mp_id, record.order.trade_seq)
            assert record.order.key is key
            assert key in released
            assert stored(index, key) is key
        # The release log keeps runs of trade seqs, no key objects: a
        # clean flat run releases each participant's trades in seq order.
        assert len(released) == len(forwarded)
        assert released._overflow is None and released._set is None

    def test_only_dedup_channels_keep_a_seen_set(self, flat_run):
        deployment, _ = flat_run
        for channel in deployment.transport:
            assert (channel._seen is None) == (channel._dedup_key is None)
        assert any(channel._seen is None for channel in deployment.transport)

    def test_key_is_not_part_of_equality_or_repr(self):
        from repro.exchange.messages import TradeOrder

        order = TradeOrder("mp1", 3)
        assert "key" not in repr(order)
        assert order == TradeOrder("mp1", 3) and hash(order) == hash(TradeOrder("mp1", 3))


def retained(n, duration, **kwargs):
    """Bytes a finished run (deployment + result) still holds, and its
    trade count."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        deployment = build(n=n, **kwargs)
        result = deployment.run(duration=duration, drain=2000.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, len(result.trades)


class TestBytes:
    def test_per_trade(self):
        small, small_trades = retained(8, 2000.0)
        large, large_trades = retained(8, 6000.0)
        assert large_trades - small_trades >= 500
        per_trade = (large - small) / (large_trades - small_trades)
        assert per_trade < BYTES_PER_TRADE, per_trade

    def test_per_participant(self):
        tree = dict(params=DBOParams(tau=20.0), topology=AggregationTopology(fanout=4, depth=2))
        small, _ = retained(64, 200.0, **tree)
        large, _ = retained(128, 200.0, **tree)
        per_participant = (large - small) / 64
        assert per_participant < BYTES_PER_PARTICIPANT, per_participant


class TestResultHandOver:
    """``RunResult``'s per-participant maps are the recorders' own maps,
    handed over at the end of the run; a settled run records no more, so
    driving its engine on changes nothing in the result."""

    @pytest.mark.parametrize(
        "scheme, kwargs",
        [
            ("dbo", {}),
            ("direct", {}),
            ("cloudex", {}),
            ("fba", {"batch_interval": 1000.0}),
            ("libra", {}),
        ],
    )
    def test_result_unchanged_after_the_engine_runs_on(self, scheme, kwargs):
        deployment = build(scheme, n=4, **kwargs)
        duration, drain = 3000.0, 20_000.0
        result = deployment.run(duration=duration, drain=drain)
        settled_at = result.counters["settled_at"]
        assert settled_at < duration + drain
        before = copy.deepcopy(
            (result.raw_arrivals, result.delivery_times, result.network_send_times, result.trades)
        )
        deployment.engine.run(until=settled_at + 10_000.0)
        assert deployment.engine.now == settled_at + 10_000.0
        after = (result.raw_arrivals, result.delivery_times, result.network_send_times, result.trades)
        assert after == before

    def test_dbo_hands_over_the_release_buffers_maps(self, flat_run):
        deployment, result = flat_run
        for rb in deployment.release_buffers:
            assert result.raw_arrivals[rb.mp_id] is rb.raw_arrivals
            assert result.delivery_times[rb.mp_id] is rb.delivery_times
            # One entry per point, its first arrival; delivery follows it.
            assert rb.raw_arrivals.keys() == rb.delivery_times.keys()
            assert all(rb.raw_arrivals[x] <= rb.delivery_times[x] for x in rb.raw_arrivals)
