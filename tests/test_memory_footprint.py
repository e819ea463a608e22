"""What a run keeps: each trade's ground truth once, as typed columns
(no per-trade object outlives the run), slotted per-participant records,
and result series handed over, not copied.

The structural checks come first: they hold on every interpreter.  The
byte bounds are ``tracemalloc`` readings of what a finished run still
holds, taken as the difference between two run sizes so set-up and
import costs cancel; each bound leaves at least 25 % headroom over the
reading on CPython 3.11 (155 B per trade, 9 676 B per participant).
"""

import copy
import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from array import array

import pytest

from repro.baselines.base import default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.release_buffer import ReleaseBuffer
from repro.experiments.registry import get_builder
from repro.sim.runtime import Runtime

# Retained bytes per trade on a flat DBO run (the participants' three
# columns, the matching engine's four, the result's trade table; the OB
# release log holds no per-trade object), and per participant on an
# aggregation tree.
BYTES_PER_TRADE = 195
BYTES_PER_PARTICIPANT = 13_735


def build(scheme="dbo", n=4, seed=7, **kwargs):
    specs = default_network_specs(n, seed=seed)
    return get_builder(scheme).build(specs, runtime=Runtime.create(seed=seed), **kwargs)


@pytest.fixture(scope="module")
def flat_run():
    deployment = build(n=4)
    return deployment, deployment.run(duration=2000.0, drain=2000.0)


class TestStructure:
    def test_no_per_trade_object_outlives_the_run(self):
        # A fresh interpreter, so nothing another test built is counted.
        script = textwrap.dedent(
            """
            import gc
            from repro.baselines.base import default_network_specs
            from repro.experiments.registry import get_builder
            from repro.sim.runtime import Runtime

            deployment = get_builder("dbo").build(
                default_network_specs(4, seed=7), runtime=Runtime.create(seed=7)
            )
            result = deployment.run(duration=2000.0, drain=2000.0)
            assert len(result.trades) > 100
            gc.collect()
            names = {"TradeOrder", "TaggedTrade", "ForwardedTrade", "TradeRecord"}
            held = sorted({type(o).__name__ for o in gc.get_objects()} & names)
            print(held)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(src, "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("kwargs", [{}, {"sync_target_c1": 30.0}], ids=["plain", "sync"])
    def test_release_buffers_are_slotted(self, kwargs):
        deployment = build(n=2, **kwargs)
        deployment.run(duration=500.0, drain=500.0)
        for rb in deployment.release_buffers:
            assert isinstance(rb, ReleaseBuffer)
            assert not hasattr(rb, "__dict__")
            with pytest.raises(AttributeError):
                rb.ad_hoc = 1

    def test_trade_columns_are_arrays(self, flat_run):
        deployment, result = flat_run
        me = deployment.ces.matching_engine
        columns = [me.forward_times, me.intake_slots, me.intake_seqs, *me.positions]
        for mp in deployment.participants:
            columns += [mp.trigger_points, mp.response_times, mp.submission_times]
        trades = result.trades
        columns += [
            trades.mp_slots, trades.trade_seqs, trades.trigger_points, trades.response_times,
            trades.submission_times, trades.forward_times, trades.positions, trades.intake,
        ]
        assert me.trade_count and len(trades)
        for column in columns:
            assert type(column) is array
        # The release log keeps runs of trade seqs, no key objects: a
        # clean flat run releases each participant's trades in seq order.
        released = deployment.ordering_buffer._released
        assert all(key in released for key in me.ordering())
        assert len(released) == me.trade_count
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
