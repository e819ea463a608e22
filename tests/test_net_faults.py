"""Tests for the net-layer fault surface: blackhole, bursts, degradation.

Also pins the lossy-link fix: a missing receive handler must fail before
any loss statistic is mutated, so a wiring error leaves counters clean.
"""

import pytest

from repro.net.latency import ConstantLatency, DegradedLatency
from repro.net.link import Link
from repro.sim.engine import EventEngine


def make_link(**kwargs):
    engine = EventEngine()
    got = []
    link = Link(
        engine,
        ConstantLatency(10.0),
        handler=lambda m, s, a: got.append((m, s, a)),
        **kwargs,
    )
    return engine, link, got


class TestBlackhole:
    def test_blackholed_packets_vanish(self):
        engine, link, got = make_link()
        link.send("a", send_time=0.0)
        link.set_blackhole(True)
        link.send("b", send_time=1.0)
        link.set_blackhole(False)
        link.send("c", send_time=2.0)
        engine.run()
        assert [m for m, _, _ in got] == ["a", "c"]
        assert link.packets_blackholed == 1
        assert link.packets_sent == 2  # dropped packets never count as sent

    def test_send_still_reports_would_be_arrival(self):
        _, link, _ = make_link()
        link.set_blackhole(True)
        assert link.send("x", send_time=5.0) == 15.0


class TestLossBurst:
    def test_burst_drops_deterministically(self):
        def run():
            engine, link, got = make_link()
            link.start_loss_burst(0.5, seed=3)
            for i in range(100):
                link.send(i, send_time=float(i))
            engine.run()
            return [m for m, _, _ in got], link.packets_dropped_in_burst

        first_got, first_dropped = run()
        second_got, second_dropped = run()
        assert first_got == second_got
        assert first_dropped == second_dropped
        assert 0 < first_dropped < 100

    def test_stop_loss_burst_heals(self):
        engine, link, got = make_link()
        link.start_loss_burst(1.0, seed=1)
        link.send("dropped", send_time=0.0)
        link.stop_loss_burst()
        link.send("kept", send_time=1.0)
        engine.run()
        assert [m for m, _, _ in got] == ["kept"]

    def test_probability_validated(self):
        _, link, _ = make_link()
        with pytest.raises(ValueError):
            link.start_loss_burst(1.5)


class TestLossyLinkHandlerValidation:
    def test_missing_handler_fails_before_stats(self):
        engine = EventEngine()
        link = Link(
            engine, ConstantLatency(10.0), loss_probability=0.99, seed=1
        )
        # Find an index the loss draw hits, with no handler wired at all.
        with pytest.raises(RuntimeError, match="no receive handler"):
            for i in range(50):
                link.send(i, send_time=float(i))
        assert link.packets_lost == 0  # the fix: stats untouched on error

    def test_burst_swallows_even_the_recovery_path(self):
        engine = EventEngine()
        got, recovered = [], []
        link = Link(
            engine,
            ConstantLatency(10.0),
            loss_probability=0.99,
            recovery_delay=50.0,
            seed=1,
            handler=lambda m, s, a: got.append(m),
            loss_handler=lambda m, s, a: recovered.append(m),
        )
        link.set_blackhole(True)
        for i in range(20):
            link.send(i, send_time=float(i))
        engine.run()
        assert got == [] and recovered == []
        assert link.packets_lost == 0


class TestDegradedLatency:
    def test_passthrough_by_default(self):
        model = DegradedLatency(ConstantLatency(10.0))
        assert model.latency_at(0.0) == 10.0
        assert (model.extra, model.factor) == (0.0, 1.0)

    def test_degrade_and_heal(self):
        model = DegradedLatency(ConstantLatency(10.0))
        model.set_degradation(extra=5.0, factor=3.0)
        assert model.latency_at(0.0) == 35.0
        assert (model.extra, model.factor) == (5.0, 3.0)
        model.clear()
        assert model.latency_at(0.0) == 10.0

    def test_validation(self):
        model = DegradedLatency(ConstantLatency(10.0))
        with pytest.raises(ValueError):
            model.set_degradation(extra=-1.0)
        with pytest.raises(ValueError):
            model.set_degradation(factor=0.0)


class TestLossSurfacedInSummaries:
    def test_packets_lost_counter_in_run_result(self):
        from repro.baselines.base import NetworkSpec
        from repro.experiments.runner import run_scheme

        specs = [
            NetworkSpec(
                forward=ConstantLatency(10.0),
                reverse=ConstantLatency(10.0),
                loss_probability=0.2,
                recovery_delay=100.0,
            )
            for _ in range(3)
        ]
        result = run_scheme("dbo", specs, duration=4_000.0, seed=6)
        assert "packets_lost" in result.counters
        assert result.counters["packets_lost"] > 0

    def test_lossless_run_has_no_loss_counter(self):
        from repro.baselines.base import NetworkSpec
        from repro.experiments.runner import run_scheme

        specs = [
            NetworkSpec(forward=ConstantLatency(10.0), reverse=ConstantLatency(10.0))
            for _ in range(3)
        ]
        result = run_scheme("dbo", specs, duration=4_000.0, seed=6)
        assert "packets_lost" not in result.counters
