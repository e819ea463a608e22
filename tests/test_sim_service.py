"""Tests for the single-server service queue and the OB capacity model."""

import pytest

from repro.baselines.base import default_network_specs
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.experiments.scenarios import cloud_specs
from repro.metrics.fairness import evaluate_fairness
from repro.metrics.latency import latency_stats
from repro.participants.response_time import UniformResponseTime
from repro.sim.engine import EventEngine
from repro.sim.service import ServiceQueue


class TestServiceQueue:
    def test_idle_server_serves_after_service_time(self):
        engine = EventEngine()
        done = []
        queue = ServiceQueue(engine, 2.0, handler=lambda item, t: done.append((item, t)))
        engine.schedule_at(10.0, lambda: queue.submit("a"))
        engine.run()
        assert done == [("a", 12.0)]

    def test_backlog_queues_fifo(self):
        engine = EventEngine()
        done = []
        queue = ServiceQueue(engine, 2.0, handler=lambda item, t: done.append((item, t)))

        def burst():
            queue.submit("a")
            queue.submit("b")
            queue.submit("c")

        engine.schedule_at(10.0, burst)
        engine.run()
        assert done == [("a", 12.0), ("b", 14.0), ("c", 16.0)]

    def test_zero_service_time_is_passthrough(self):
        engine = EventEngine()
        done = []
        queue = ServiceQueue(engine, 0.0, handler=lambda item, t: done.append(t))
        engine.schedule_at(5.0, lambda: queue.submit("x"))
        engine.run()
        assert done == [5.0]

    def test_counters(self):
        engine = EventEngine()
        queue = ServiceQueue(engine, 2.0, handler=lambda item, t: None)
        engine.schedule_at(0.0, lambda: [queue.submit(i) for i in range(5)])
        engine.run()
        assert queue.messages_served == 5
        assert queue.busy_time == 10.0
        assert queue.max_delay == 10.0
        assert queue.utilization(100.0) == pytest.approx(0.1)

    def test_backlog_delay(self):
        engine = EventEngine()
        queue = ServiceQueue(engine, 3.0, handler=lambda item, t: None)
        engine.schedule_at(0.0, lambda: [queue.submit(i) for i in range(4)])
        engine.schedule_at(0.0, lambda: None)
        engine.run(until=0.0)
        assert queue.backlog_delay == pytest.approx(12.0)

    def test_validation(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            ServiceQueue(engine, -1.0)
        queue = ServiceQueue(engine, 1.0)
        with pytest.raises(RuntimeError):
            queue.submit("x")
        with pytest.raises(ValueError):
            queue.utilization(0.0)


class TestOBCapacityModel:
    """§5.2: the flat OB saturates with participants; shards do not."""

    def run(self, n, shards, service=0.8):
        deployment = DBODeployment(
            cloud_specs(n, seed=12),
            params=DBOParams(),
            response_time_model=UniformResponseTime(5.0, 19.0, seed=1),
            seed=2,
            n_ob_shards=shards,
            ob_service_time=service,
        )
        return deployment.run(duration=4000.0)

    def test_light_load_unaffected(self):
        with_svc = latency_stats(self.run(4, 1)).avg
        deployment = DBODeployment(
            cloud_specs(4, seed=12),
            params=DBOParams(),
            response_time_model=UniformResponseTime(5.0, 19.0, seed=1),
            seed=2,
        )
        without = latency_stats(deployment.run(duration=4000.0)).avg
        assert with_svc == pytest.approx(without, abs=5.0)

    def test_flat_ob_saturates_sharded_does_not(self):
        flat = self.run(32, 1)
        sharded = self.run(32, 4)
        assert latency_stats(flat).avg > 10 * latency_stats(sharded).avg
        assert flat.counters["ob_service_max_delay"] > 100.0
        assert sharded.counters["ob_service_max_delay"] < 50.0

    def test_fairness_survives_saturation(self):
        # Saturation delays everything equally at the single OB: ordering
        # is still by stamp, so fairness holds even while latency explodes.
        flat = self.run(16, 1, service=1.5)
        assert evaluate_fairness(flat).ratio > 0.999

    def test_supervisor_hears_every_participant_through_the_queue(self):
        # Participants share their OB's queue; each item must be served by
        # its sender's handler, or the detector hears only the last
        # participant's RB and confirms the live others dead.
        result = DBODeployment(
            default_network_specs(4, seed=5), seed=5, supervise=True, ob_service_time=0.3
        ).run(duration=5000.0)
        for counter in ("detector_suspects", "supervisor_confirms", "supervisor_unrecoverable"):
            assert result.counters[counter] == 0
