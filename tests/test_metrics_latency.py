"""Unit tests for latency metrics and the Max-RTT bound (Theorem 3)."""

import math

import pytest

from repro.metrics.latency import (
    LatencyStats,
    data_delivery_latencies,
    latency_stats,
    max_rtt_bound_per_trade,
    max_rtt_stats,
    percentile,
    trade_latencies,
)
from repro.metrics.records import RunResult, TradeRecord


def record(mp, seq, trigger, rt, s=0.0, f=None, pos=None):
    return TradeRecord(
        mp_id=mp,
        trade_seq=seq,
        trigger_point=trigger,
        response_time=rt,
        submission_time=s,
        forward_time=f,
        position=pos,
    )


def simple_run(trades, reverse=None, raw=None, sends=None):
    return RunResult(
        scheme="test",
        trades=trades,
        generation_times={0: 0.0, 1: 40.0},
        network_send_times=sends or {0: 0.0, 1: 40.0},
        raw_arrivals=raw or {"a": {0: 10.0, 1: 50.0}, "b": {0: 12.0, 1: 52.0}},
        delivery_times={"a": {0: 10.0, 1: 50.0}, "b": {0: 12.0, 1: 52.0}},
        reverse_latency_at=reverse,
    )


class TestTradeLatencies:
    def test_eq8(self):
        # F - G(x) - RT = 30 - 0 - 5 = 25.
        trades = [record("a", 0, 0, 5.0, f=30.0, pos=0)]
        assert trade_latencies(simple_run(trades)) == [25.0]

    def test_incomplete_skipped(self):
        trades = [record("a", 0, 0, 5.0)]
        assert trade_latencies(simple_run(trades)) == []

    def test_unknown_trigger_skipped(self):
        trades = [record("a", 0, 99, 5.0, f=30.0, pos=0)]
        assert trade_latencies(simple_run(trades)) == []


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.avg == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == pytest.approx(2.5)

    def test_empty_is_nan(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert math.isnan(stats.avg)

    def test_percentile_ordering(self):
        stats = LatencyStats.from_samples(list(range(1000)))
        assert stats.p50 <= stats.p99 <= stats.p999 <= stats.p9999

    def test_row_format(self):
        row = LatencyStats.from_samples([1.0]).row()
        assert len(row.split()) == 4

    def test_latency_stats_of_run(self):
        trades = [
            record("a", 0, 0, 5.0, f=30.0, pos=0),
            record("b", 0, 0, 5.0, f=45.0, pos=1),
        ]
        stats = latency_stats(simple_run(trades))
        assert stats.avg == pytest.approx((25.0 + 40.0) / 2)


class TestMaxRTTBound:
    def test_hand_computed_bound(self):
        # Forward latencies: a: 10, b: 12 (send time 0); reverse constant
        # 8 for a, 9 for b → RTTs 18 and 21 → bound = 21.
        def reverse(mp_id, t):
            return 8.0 if mp_id == "a" else 9.0

        trades = [record("a", 0, 0, 5.0, f=30.0, pos=0)]
        bounds = max_rtt_bound_per_trade(simple_run(trades, reverse=reverse))
        assert bounds == [21.0]

    def test_bound_uses_response_time_for_reverse_query(self):
        seen = []

        def reverse(mp_id, t):
            seen.append((mp_id, t))
            return 1.0

        trades = [record("a", 0, 0, 5.0, f=30.0, pos=0)]
        max_rtt_bound_per_trade(simple_run(trades, reverse=reverse))
        # Hypothetical responses at raw_delivery + RT: 10+5 and 12+5.
        assert ("a", 15.0) in seen
        assert ("b", 17.0) in seen

    def test_missing_arrival_skips_trade(self):
        def reverse(mp_id, t):
            return 1.0

        trades = [record("a", 0, 1, 5.0, f=60.0, pos=0)]
        raw = {"a": {1: 50.0}, "b": {}}  # b never saw point 1
        bounds = max_rtt_bound_per_trade(
            simple_run(trades, reverse=reverse, raw=raw)
        )
        assert bounds == []

    def test_requires_reverse_accessor(self):
        trades = [record("a", 0, 0, 5.0, f=30.0, pos=0)]
        with pytest.raises(ValueError):
            max_rtt_bound_per_trade(simple_run(trades))

    def test_stats_wrapper(self):
        def reverse(mp_id, t):
            return 8.0

        trades = [record("a", 0, 0, 5.0, f=30.0, pos=0)]
        stats = max_rtt_stats(simple_run(trades, reverse=reverse))
        assert stats.count == 1
        assert stats.avg == pytest.approx(20.0)


class TestDataDeliveryLatencies:
    def test_per_point_delivery_latency(self):
        run = simple_run([])
        lat = data_delivery_latencies(run, "a")
        assert lat == {0: 10.0, 1: 10.0}

    def test_unknown_participant_empty(self):
        run = simple_run([])
        assert data_delivery_latencies(run, "zzz") == {}


class TestPercentileMatchesNumpy:
    """The stdlib helper against ``numpy.percentile`` (a dev dependency)."""

    def test_bit_identical_over_random_samples(self):
        np = pytest.importorskip("numpy")
        import random

        rng = random.Random(12)
        for case in range(3_000):
            size = rng.choice((1, 2, 3, 7, 8, 9, 100, 1_001))
            sample = sorted(rng.uniform(-1e3, 1e6) if case % 3 else rng.expovariate(0.01) for _ in range(size))
            for q in (0, 10, 25, 50, 75, 90, 99, 99.9, 99.99, 100, rng.uniform(0, 100)):
                assert percentile(sample, q) == float(np.percentile(sample, q)), (size, q)

    def test_ties_and_single_sample(self):
        assert percentile([5.0], 99.0) == 5.0
        assert percentile([1.0, 1.0, 1.0], 50.0) == 1.0
        assert percentile([0.0, 10.0], 100.0) == 10.0


def test_core_import_path_loads_no_numpy():
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = "import sys, repro.experiments, repro.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
