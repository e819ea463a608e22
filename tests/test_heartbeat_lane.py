"""Contracts the heartbeat lane's send and delivery path must keep.

The lane is RB timer tick → ``Channel.send`` → ``Link.send`` →
``Scheduler.post_at`` → channel delivery → reverse dispatcher → ordering
buffer.  Each hop is kept to one frame, which invites two shortcuts these
tests rule out: binding the RB sinks to a pre-fused link send (duplication
started mid-run would never reach the wire), and pushing deliveries past
the scheduler's time guard (a NaN or negative latency would run events
out of order and poison ``engine.now``).  The last hop must also stay
bounded when nothing is queued: a quiet drain is all heartbeats.
"""

import math

import pytest

from repro.baselines.base import default_network_specs
from repro.core.params import AggregationTopology
from repro.core.system import DBODeployment
from repro.net.latency import LatencyModel
from repro.net.link import Link
from repro.sim.engine import ENGINE_FACTORIES, SimulationError, make_engine
from repro.sim.runtime import Runtime

ENGINES = sorted(ENGINE_FACTORIES)
BAD_LATENCIES = [float("nan"), -5.0]


class _FixedLatency(LatencyModel):
    """Returns ``value`` at every send time — including values no real
    model may produce."""

    def __init__(self, value: float) -> None:
        self.value = value

    def latency_at(self, t: float) -> float:
        return self.value


class TestDuplicationStartedMidRun:
    def _run(self, engine: str, duplicate_from=None) -> DBODeployment:
        deployment = DBODeployment(
            default_network_specs(4, seed=5), runtime=Runtime.create(seed=5, engine=engine)
        )
        if duplicate_from is not None:
            # Scheduled before run(): fires after the lazy build has wired
            # the RB sinks to the reverse channels.
            deployment.engine.schedule_at(
                duplicate_from,
                lambda: deployment.transport.channel("rev-mp0").start_duplication(1.0, seed=3),
            )
        deployment.run(duration=5000.0, drain=2000.0)
        return deployment

    @pytest.mark.parametrize("engine", ENGINES)
    def test_reaches_the_rb_send_path(self, engine):
        clean = self._run(engine)
        duplicated = self._run(engine, duplicate_from=2500.0)
        channel = duplicated.transport.channel("rev-mp0")
        clean_channel = clean.transport.channel("rev-mp0")
        assert clean_channel.messages_duplicated == 0
        # Duplication adds copies, not sends, and every copy hit the link.
        assert 0 < channel.messages_duplicated < channel.messages_sent == clean_channel.messages_sent
        assert channel.packets_sent == channel.messages_sent + channel.messages_duplicated
        # The OB saw the trade copies (key dedup) and the heartbeat copies.
        assert clean.ordering_buffer.retransmits_ignored == 0
        assert duplicated.ordering_buffer.retransmits_ignored > 0
        assert (
            duplicated.ordering_buffer.heartbeats_processed
            > clean.ordering_buffer.heartbeats_processed
        )


class TestQuietDrainStaysBounded:
    def test_lazy_extremes_heap_is_compacted_without_queued_trades(self):
        # A long drain: every heartbeat advances a watermark and pushes a
        # lazy-heap entry, but with nothing queued no release attempt
        # ever pops one — the push itself must compact.
        # run() stops once the run has settled, so the quiet horizon is
        # simulated past it on the engine directly.
        deployment = DBODeployment(default_network_specs(4, seed=5), seed=5)
        deployment.run(duration=500.0, drain=50_000.0)
        deployment.engine.run(until=50_500.0)
        assert deployment.ordering_buffer.heartbeats_processed > 5_000
        assert len(deployment.ordering_buffer.policy._ext_heap) <= 64 + 4 * 4


class TestHandleFreePushKeepsTheTimeGuard:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("latency", BAD_LATENCIES)
    def test_link_send_raises(self, engine, latency):
        sim = make_engine(engine)
        link = Link(sim, _FixedLatency(latency), handler=lambda *message: None)
        sim.run(until=10.0)
        with pytest.raises(SimulationError):
            link.send("heartbeat")
        assert sim.now == 10.0
        sim.run(until=20.0)
        assert sim.now == 20.0 and sim.events_processed == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("latency", BAD_LATENCIES)
    def test_aggregation_edge_raises(self, engine, latency):
        # The tree's agg-* edges take shard_master_latency when the
        # topology sets no edge latency of its own.
        deployment = DBODeployment(
            default_network_specs(4, seed=5),
            runtime=Runtime.create(seed=5, engine=engine),
            topology=AggregationTopology(fanout=2, depth=2),
            n_ob_shards=4,
            shard_master_latency=_FixedLatency(latency),
        )
        with pytest.raises(SimulationError):
            deployment.run(duration=3000.0, drain=1000.0)
        now = deployment.engine.now
        assert math.isfinite(now) and 0.0 <= now <= 4000.0
        assert "agg-shard-0" in deployment.transport
