"""Unit tests for FIFO links, with and without Appendix D loss."""

import math

import pytest

from repro.net.latency import ConstantLatency, StepLatency
from repro.net.transport import Channel
from repro.sim.engine import EventEngine


def make_link(engine, model):
    got = []
    link = Channel("link", engine, model, handler=lambda m, s, a: got.append((m, s, a)))
    return link, got


class TestLink:
    def test_delivers_with_latency(self):
        engine = EventEngine()
        link, got = make_link(engine, ConstantLatency(5.0))
        link.send("hello")
        engine.run()
        assert got == [("hello", 0.0, 5.0)]

    def test_send_returns_arrival_time(self):
        engine = EventEngine()
        link, _ = make_link(engine, ConstantLatency(5.0))
        assert link.send("x") == 5.0

    def test_explicit_send_time(self):
        engine = EventEngine()
        link, got = make_link(engine, ConstantLatency(5.0))
        engine.schedule_at(10.0, lambda: link.send("x", send_time=10.0))
        engine.run()
        assert got == [("x", 10.0, 15.0)]

    def test_fifo_clamping(self):
        # Latency drops from 100 to 1 at t=10: the later packet would
        # overtake; FIFO clamps it to the earlier arrival.
        engine = EventEngine()
        model = StepLatency([(0.0, 100.0), (10.0, 1.0)])
        link, got = make_link(engine, model)
        link.send("slow", send_time=0.0)          # arrives 100
        engine.schedule_at(10.0, lambda: link.send("fast"))  # raw arrival 11
        engine.run()
        assert [m for m, _, _ in got] == ["slow", "fast"]
        assert got[1][2] == 100.0  # clamped

    def test_requires_handler(self):
        engine = EventEngine()
        link = Channel("link", engine, ConstantLatency(1.0))
        with pytest.raises(RuntimeError):
            link.send("x")

    def test_connect_attaches_handler(self):
        engine = EventEngine()
        link = Channel("link", engine, ConstantLatency(1.0))
        got = []
        link.connect(lambda m, s, a: got.append(m))
        link.send("x")
        engine.run()
        assert got == ["x"]

    def test_counters(self):
        engine = EventEngine()
        link, _ = make_link(engine, ConstantLatency(5.0))
        link.send("a")
        link.send("b")
        assert link.packets_sent == 2
        assert link.messages_delivered == 0
        engine.run()
        assert link.messages_delivered == 2


class TestLossyLink:
    def make(self, engine, loss, recovery=100.0, seed=0):
        got, recovered = [], []
        link = Channel(
            "link",
            engine,
            ConstantLatency(5.0),
            loss_probability=loss,
            recovery_delay=recovery,
            seed=seed,
            handler=lambda m, s, a: got.append((m, s, a)),
            loss_handler=lambda m, s, a: recovered.append((m, s, a)),
        )
        return link, got, recovered

    def test_zero_loss_behaves_like_link(self):
        engine = EventEngine()
        link, got, recovered = self.make(engine, 0.0)
        for i in range(20):
            link.send(i)
        engine.run()
        assert len(got) == 20
        assert recovered == []
        assert link.packets_lost == 0

    def test_losses_go_to_loss_handler_with_delay(self):
        engine = EventEngine()
        link, got, recovered = self.make(engine, 0.9999, recovery=100.0, seed=1)
        link.send("x")
        engine.run()
        assert got == []
        assert recovered == [("x", 0.0, 105.0)]
        assert link.packets_lost == 1

    def test_loss_rate_approximation(self):
        engine = EventEngine()
        link, got, recovered = self.make(engine, 0.2, seed=2)
        for i in range(5000):
            link.send(i)
        engine.run()
        assert len(recovered) / 5000 == pytest.approx(0.2, abs=0.03)
        assert len(got) + len(recovered) == 5000

    def test_loss_decisions_deterministic(self):
        def run_once():
            engine = EventEngine()
            link, got, recovered = self.make(engine, 0.3, seed=7)
            for i in range(100):
                link.send(i)
            engine.run()
            return [m for m, _, _ in recovered]

        assert run_once() == run_once()

    def test_recovery_falls_back_to_main_handler(self):
        engine = EventEngine()
        got = []
        link = Channel(
            "link",
            engine,
            ConstantLatency(5.0),
            loss_probability=0.9999,
            recovery_delay=50.0,
            seed=1,
            handler=lambda m, s, a: got.append((m, a)),
        )
        link.send("x")
        engine.run()
        assert got == [("x", 55.0)]

    def test_validation(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            Channel("link", engine, ConstantLatency(1.0), loss_probability=1.5)
        with pytest.raises(ValueError):
            Channel("link", engine, ConstantLatency(1.0), recovery_delay=-1.0)

    def test_loss_set_after_construction_takes_effect(self):
        engine = EventEngine()
        link, got, recovered = self.make(engine, 0.0)
        link.loss_probability = 0.9999
        for i in range(10):
            link.send(i)
        engine.run()
        assert got == []
        assert len(recovered) == link.packets_lost == 10

    @pytest.mark.parametrize("loss", [1.0, -0.1, math.nan])
    def test_loss_write_is_validated(self, loss):
        link, _, _ = self.make(EventEngine(), 0.1)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            link.loss_probability = loss
        assert link.loss_probability == 0.1

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_recovery_delay_must_be_finite(self, delay):
        # NaN passes a bare `< 0` check and would only fail mid-run, when
        # the first recovery is scheduled at a NaN time.
        with pytest.raises(ValueError, match="non-negative and finite"):
            Channel("link", EventEngine(), ConstantLatency(1.0), recovery_delay=delay)

    def test_lost_packets_do_not_block_fifo(self):
        # A lost packet's (late) recovery must not delay later packets.
        engine = EventEngine()
        link, got, recovered = self.make(engine, 0.9999, recovery=1000.0, seed=1)
        link.send("lost")
        # Temporarily drop loss so the next packet goes through cleanly.
        link.loss_probability = 0.0
        engine.schedule_at(1.0, lambda: link.send("ok"))
        engine.run()
        assert got[0][0] == "ok"
        assert got[0][2] == 6.0  # 1.0 + 5.0, unaffected by the recovery
        assert recovered[0][0] == "lost"
