"""Tests for external stream serialization (§4.2.6)."""

from functools import partial

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.ces import CentralExchangeServer
from repro.exchange.external import ExternalEvent, ExternalSource, StreamMerger
from repro.exchange.feed import FeedConfig
from repro.experiments.runner import build_deployment
from repro.metrics.fairness import evaluate_fairness
from repro.net.latency import ConstantLatency, UniformJitterLatency
from repro.net.transport import Channel
from repro.sim.engine import EventEngine


class TestStreamMerger:
    def test_events_become_sequential_points(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine, feed_config=FeedConfig(interval=40.0))
        distributed = []
        ces.set_distributor(distributed.append)
        merger = StreamMerger(ces)
        ces.start(stop_time=100.0)
        link = Channel("link", engine, ConstantLatency(500.0), handler=merger.on_event)
        engine.schedule_at(10.0, lambda: link.send(ExternalEvent("news", 0, 10.0, "CPI")))
        engine.run(until=1000.0)
        # Native points 0,1,2 (t=0,40,80) plus the merged event at 510.
        ids = [p.point_id for p in distributed]
        assert ids == sorted(ids)
        merged = merger.merged[0]
        assert merged.payload.payload == "CPI"
        assert merged.generation_time == 510.0
        assert merged.is_opportunity

    def test_injection_requires_distributor(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine)
        with pytest.raises(RuntimeError):
            ces.inject_external("x")


class TestExternalSource:
    def test_poisson_emission(self):
        engine = EventEngine()
        got = []
        link = Channel("link", engine, ConstantLatency(1.0), handler=lambda e, s, a: got.append(e))
        source = ExternalSource(engine, "news", link, mean_interval=100.0, seed=3)
        source.start(start_time=0.0, stop_time=10_000.0)
        engine.run(until=11_000.0)
        assert 50 < len(got) < 200  # ~100 expected
        assert [e.sequence for e in got] == list(range(len(got)))

    def test_deterministic(self):
        def emit_times(seed):
            engine = EventEngine()
            got = []
            link = Channel("link", engine, ConstantLatency(1.0), handler=lambda e, s, a: got.append(a))
            source = ExternalSource(engine, "n", link, mean_interval=50.0, seed=seed)
            source.start(stop_time=2000.0)
            engine.run(until=3000.0)
            return got

        assert emit_times(4) == emit_times(4)
        assert emit_times(4) != emit_times(5)

    def test_validation(self):
        engine = EventEngine()
        link = Channel("link", engine, ConstantLatency(1.0), handler=lambda *a: None)
        with pytest.raises(ValueError):
            ExternalSource(engine, "n", link, mean_interval=0.0)


class TestSuperStreamFairness:
    """Merged external events get the same LRTF guarantee as native ticks."""

    def run_scheme(self, deployment_cls, **kwargs):
        specs = [
            NetworkSpec(
                forward=UniformJitterLatency(8.0 + 4.0 * i, 4.0, seed=70 + i),
                reverse=UniformJitterLatency(8.0 + 4.0 * i, 4.0, seed=80 + i),
            )
            for i in range(3)
        ]
        deployment = deployment_cls(specs, seed=5, **kwargs)
        # News every ~500 µs over an internet-grade (ms jitter) path.
        deployment.add_external_source(
            "news",
            UniformJitterLatency(2000.0, 1500.0, seed=99),
            mean_interval=500.0,
            seed=9,
        )
        result = deployment.run(duration=20_000.0)
        return deployment, result

    def test_dbo_fair_on_external_races(self):
        deployment, result = self.run_scheme(DBODeployment, params=DBOParams(delta=20.0))
        merged_ids = {p.point_id for p in deployment.stream_merger.merged}
        assert merged_ids, "expected some external events"
        races = result.trades_by_trigger()
        external_races = [races[x] for x in merged_ids if x in races]
        assert external_races
        # Every race on a merged point is ordered perfectly by DBO.
        from repro.metrics.fairness import pairwise_correct

        for trades in external_races:
            for i in range(len(trades)):
                for j in range(i + 1, len(trades)):
                    assert pairwise_correct(trades[i], trades[j]) in (None, True)

    def test_direct_unfair_on_external_races(self):
        deployment, result = self.run_scheme(partial(build_deployment, "direct"))
        merged_ids = {p.point_id for p in deployment.stream_merger.merged}
        from repro.metrics.fairness import pairwise_correct

        verdicts = []
        races = result.trades_by_trigger()
        for x in merged_ids:
            for trades in [races.get(x, [])]:
                for i in range(len(trades)):
                    for j in range(i + 1, len(trades)):
                        v = pairwise_correct(trades[i], trades[j])
                        if v is not None:
                            verdicts.append(v)
        assert verdicts
        assert not all(verdicts)  # the skewed network misorders some


def test_payload_factory():
    engine = EventEngine()
    got = []
    link = Channel("link", engine, ConstantLatency(1.0), handler=lambda e, s, a: got.append(e))
    source = ExternalSource(
        engine, "news", link, mean_interval=100.0, seed=3,
        payload_factory=lambda seq: f"headline-{seq}",
    )
    source.start(stop_time=1000.0)
    engine.run(until=2000.0)
    assert got
    assert got[0].payload == "headline-0"
    assert all(e.payload == f"headline-{e.sequence}" for e in got)
