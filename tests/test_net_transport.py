"""Tests for the message plane: Channel/Transport semantics, duplicate
delivery, channel-addressed faults, and the at-least-once safety claims.

The headline pins:

* default lossless transport is behaviorally identical to the historical
  callback wiring (trade-ordering digests match with acks on and off);
* losing acks drives real retransmission (original stamps, OB key-dedup,
  zero trades lost, byte-identical ordering);
* duplicate delivery on any channel leaves the ordering untouched while
  the per-channel odometers record what happened.
"""

import pytest

from repro.baselines.base import NetworkSpec
from repro.core.params import AggregationTopology, DBOParams
from repro.core.release_buffer import RetransmitPolicy
from repro.core.system import DBODeployment
from repro.experiments.chaos import CHAOS_PLANS, make_plan, run_chaos
from repro.experiments.runner import build_deployment
from repro.experiments.scenarios import cloud_specs
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.metrics.serialization import summary_to_dict, trade_ordering_digest
from repro.net.latency import ConstantLatency
from repro.net.transport import Channel, Transport
from repro.sim.engine import EventEngine


def make_channel(dedup_key=None, latency=10.0, **link_kwargs):
    engine = EventEngine()
    channel = Channel("test", engine, ConstantLatency(latency), source="a",
                      destination="b", dedup_key=dedup_key, **link_kwargs)
    got = []
    channel.connect(lambda m, s, a: got.append((m, s, a)))
    return engine, channel, got


class TestTransportRegistry:
    def test_names_are_unique(self):
        engine = EventEngine()
        transport = Transport()
        transport.open_channel("x", engine, ConstantLatency(1.0))
        with pytest.raises(ValueError, match="duplicate channel name"):
            transport.open_channel("x", engine, ConstantLatency(1.0))

    def test_unknown_name_lists_available(self):
        engine = EventEngine()
        transport = Transport()
        transport.open_channel("b", engine, ConstantLatency(1.0))
        transport.open_channel("a", engine, ConstantLatency(1.0))
        with pytest.raises(KeyError, match=r"'a', 'b'"):
            transport.channel("zz")

    def test_iteration_and_counters_sorted_by_name(self):
        engine = EventEngine()
        transport = Transport()
        for name in ("rev-mp1", "ack-mp0", "fwd-mp0"):
            transport.open_channel(name, engine, ConstantLatency(1.0))
        assert transport.names() == ["ack-mp0", "fwd-mp0", "rev-mp1"]
        assert [c.name for c in transport] == transport.names()
        assert list(transport.counters()) == transport.names()
        assert "ack-mp0" in transport
        assert "nope" not in transport
        assert len(transport) == 3


class TestChannelDelivery:
    def test_counts_sent_and_delivered(self):
        engine, channel, got = make_channel()
        channel.send("a", send_time=0.0)
        channel.send("b", send_time=1.0)
        engine.run()
        assert [m for m, _, _ in got] == ["a", "b"]
        assert channel.messages_sent == 2
        assert channel.messages_delivered == 2
        assert channel.counters() == {
            "sent": 2.0, "delivered": 2.0, "dropped": 0.0,
            "duplicated": 0.0, "deduped": 0.0,
        }

    def test_dedup_hook_absorbs_repeats(self):
        engine, channel, got = make_channel(dedup_key=lambda m: m)
        channel.send("a", send_time=0.0)
        channel.send("a", send_time=1.0)
        channel.send("b", send_time=2.0)
        engine.run()
        assert [m for m, _, _ in got] == ["a", "b"]
        assert channel.messages_deduped == 1
        assert channel.messages_delivered == 2

    def test_blackhole_and_burst_count_as_dropped(self):
        engine, channel, got = make_channel()
        channel.set_blackhole(True)
        channel.send("gone", send_time=0.0)
        channel.set_blackhole(False)
        channel.start_loss_burst(1.0, seed=0)
        channel.send("also gone", send_time=1.0)
        channel.stop_loss_burst()
        channel.send("kept", send_time=2.0)
        engine.run()
        assert [m for m, _, _ in got] == ["kept"]
        assert channel.messages_dropped == 2

    def test_degrade_and_clear(self):
        engine, channel, got = make_channel(latency=10.0)
        channel.degrade(extra=90.0)
        channel.send("slow", send_time=0.0)
        channel.clear_degradation()
        channel.send("fast", send_time=200.0)
        engine.run()
        assert got[0][2] == 100.0
        assert got[1][2] == 210.0

    def test_loss_handler_noop_on_plain_link(self):
        engine, channel, got = make_channel()
        channel.loss_handler = lambda m, s, a: pytest.fail("a loss-free channel recovered")
        channel.send("a", send_time=0.0)
        engine.run()
        assert [m for m, _, _ in got] == ["a"]

    def test_loss_handler_installed_on_lossy_link(self):
        engine, channel, got = make_channel(loss_probability=0.99, recovery_delay=50.0)
        recovered = []
        channel.loss_handler = lambda m, s, a: recovered.append(m)
        for i in range(20):
            channel.send(i, send_time=float(i))
        engine.run()
        assert recovered  # some packets went the out-of-band way
        assert len(got) + len(recovered) == 20
        assert channel.counters()["lost"] == float(len(recovered))


class TestLossRecoveryRoutes:
    """Appendix D recoveries reach the receiver by one of two routes."""

    def _run(self, with_loss_handler):
        hooked, recovered = [], []

        def key(message):
            hooked.append(message)
            return message

        engine, channel, got = make_channel(
            dedup_key=key, loss_probability=0.5, recovery_delay=50.0, seed=1
        )
        if with_loss_handler:
            channel.loss_handler = lambda m, s, a: recovered.append(m)
        for i in range(40):
            channel.send(i, send_time=float(i))
        engine.run()
        return channel, [m for m, _, _ in got], hooked, recovered

    def test_loss_handler_bypasses_dedup_and_delivered(self):
        channel, got, hooked, recovered = self._run(with_loss_handler=True)
        assert 0 < len(recovered) < 40
        assert sorted(got + recovered) == list(range(40))
        assert sorted(hooked) == list(range(40))  # recoveries pass the hook too
        assert channel.packets_lost == len(recovered)
        assert channel.messages_delivered == len(got)

    def test_without_loss_handler_recoveries_pass_the_hook(self):
        channel, got, hooked, recovered = self._run(with_loss_handler=False)
        assert recovered == []
        assert sorted(got) == sorted(hooked) == list(range(40))
        lost = channel.packets_lost
        assert 0 < lost < 40
        # Counted as channel deliveries, though only the rest rode the wire.
        assert channel.messages_delivered == 40
        assert channel.packets_sent == 40 - lost


class TestDuplicateDelivery:
    def test_duplicates_share_the_arrival_time(self):
        engine, channel, got = make_channel()
        channel.start_duplication(1.0, seed=3)
        channel.send("m", send_time=0.0)
        engine.run()
        assert [m for m, _, _ in got] == ["m", "m"]
        assert got[0][2] == got[1][2]
        assert channel.messages_duplicated == 1

    def test_duplication_is_seed_deterministic(self):
        def run():
            engine, channel, got = make_channel()
            channel.start_duplication(0.5, seed=9)
            for i in range(50):
                channel.send(i, send_time=float(i))
            engine.run()
            return [m for m, _, _ in got], channel.messages_duplicated

        first, first_dups = run()
        second, second_dups = run()
        assert first == second
        assert first_dups == second_dups
        assert 0 < first_dups < 50

    def test_stop_duplication(self):
        engine, channel, got = make_channel()
        channel.start_duplication(1.0)
        channel.send("a", send_time=0.0)
        channel.stop_duplication()
        channel.send("b", send_time=1.0)
        engine.run()
        assert [m for m, _, _ in got] == ["a", "a", "b"]

    def test_probability_bounds(self):
        _, channel, _ = make_channel()
        for probability in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="probability"):
                channel.start_duplication(probability)

    def test_dedup_hook_makes_duplication_invisible(self):
        engine, channel, got = make_channel(dedup_key=lambda m: m)
        channel.start_duplication(1.0, seed=1)
        for i in range(10):
            channel.send(i, send_time=float(i))
        engine.run()
        assert [m for m, _, _ in got] == list(range(10))
        assert channel.messages_duplicated == 10
        assert channel.messages_deduped == 10


# ----------------------------------------------------------------------
# Integration: the deployments ride the message plane
# ----------------------------------------------------------------------
def quiet_specs(n=4):
    return [
        NetworkSpec(forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i))
        for i in range(n)
    ]


DURATION = 20_000.0


class TestLosslessEquivalence:
    """Default lossless transport must match the legacy callback wiring."""

    def digest(self, policy):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=7,
            retransmit_policy=policy,
        )
        return trade_ordering_digest(deployment.run(duration=DURATION))

    def test_acks_do_not_perturb_the_ordering(self):
        assert self.digest(None) == self.digest(RetransmitPolicy())

    def test_channel_registry_covers_every_path(self):
        policy = RetransmitPolicy()
        deployment = DBODeployment(
            quiet_specs(2), params=DBOParams(delta=20.0), seed=7,
            retransmit_policy=policy, enable_egress_gateway=True,
        )
        result = deployment.run(duration=5_000.0)
        assert deployment.transport.names() == [
            "ack-mp0", "ack-mp1", "egress", "fwd-mp0", "fwd-mp1",
            "ob-adopt", "rev-mp0", "rev-mp1",
        ]
        # Every channel that carried traffic shows up in the run result.
        assert result.channels == deployment.transport.counters()
        assert result.channels["fwd-mp0"]["sent"] > 0
        assert result.channels["rev-mp0"]["sent"] > 0
        assert result.channels["ack-mp0"]["sent"] > 0


class TestAckLoss:
    """Losing acks drives retransmission; nothing is lost, nothing moves."""

    def run_with(self, plan):
        policy = RetransmitPolicy(timeout=500.0, backoff=2.0, max_retries=8)
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=5,
            retransmit_policy=policy,
        )
        if plan is not None:
            injector = FaultInjector(plan)
            injector.arm(deployment)
        return deployment, deployment.run(duration=DURATION)

    def test_ack_burst_loss_retransmits_and_loses_nothing(self):
        plan = FaultSchedule.of(
            *[
                FaultSpec(kind="link_burst_loss", at=4_000.0, duration=7_000.0,
                          channel=f"ack-mp{i}", magnitude=0.9, seed=11 + i)
                for i in range(4)
            ],
            name="ack-loss",
        )
        _, clean = self.run_with(None)
        deployment, faulted = self.run_with(plan)
        assert faulted.counters["trades_retransmitted"] > 0
        # A lost ack is answered again when the retransmitted copy reaches
        # the OB: by the end every release is acked and no RB still
        # guards a trade.
        released = deployment.ordering_buffer.trades_released
        assert faulted.counters["acks_received"] == released == clean.counters["acks_received"]
        assert [rb.recovery_state()["unacked"] for rb in deployment.release_buffers] == [0.0] * 4
        assert faulted.counters.get("retransmits_abandoned", 0.0) == 0.0
        assert faulted.completion_ratio() == 1.0
        # Resends carry the original stamps and the OB dedups on keys, so
        # the matching-engine ordering is byte-identical.
        assert trade_ordering_digest(faulted) == trade_ordering_digest(clean)
        dropped = sum(
            faulted.channels[f"ack-mp{i}"]["dropped"] for i in range(4)
        )
        assert dropped > 0

    def test_named_plan_via_run_chaos(self):
        plan = make_plan("ack-loss", DURATION, 4)
        report = run_chaos(
            "dbo", lambda: cloud_specs(4, seed=3), duration=DURATION,
            plan=plan, seed=3,
        )
        assert report.safe
        assert report.faulted.counters["trades_retransmitted"] > 0
        assert report.faulted.completion_ratio() == 1.0
        assert report.degradation.completion_drop == 0.0

    @pytest.mark.parametrize(
        "scheme, kwargs",
        [
            ("dbo", {}),
            ("prob", {}),
            ("dbo", {"n_ob_shards": 4}),
            ("dbo", {"topology": AggregationTopology(fanout=2, depth=2)}),
        ],
        ids=["flat", "prob", "two-level", "tree"],
    )
    def test_lost_acks_do_not_stall_recovery(self, scheme, kwargs):
        # A copy of an already-released trade is acked again by the
        # releasing root (flat OB or master), so the faulted twin settles
        # like the clean one instead of retransmitting to the drain cap.
        report = run_chaos(
            scheme, lambda: cloud_specs(8), 6_000.0,
            make_plan("ack-loss", 6_000.0, 8), seed=3, **kwargs,
        )
        faulted = report.faulted.counters
        assert faulted["trades_retransmitted"] > 0
        assert faulted["acks_received"] == report.clean.counters["acks_received"]
        assert faulted["settled_at"] < 20_000.0  # the drain cap is 26 000
        assert not [
            event for event in report.faulted_audit.liveness_events
            if event.kind == "recovery_stalled"
        ]
        assert report.faulted_digest == report.clean_digest


class TestDuplicateDeliveryIntegration:
    def run_dbo(self, plan):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=9,
        )
        if plan is not None:
            injector = FaultInjector(plan)
            injector.arm(deployment)
        return deployment.run(duration=DURATION)

    def test_reverse_duplicates_are_absorbed_by_ob_dedup(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="duplicate_delivery", at=2_000.0, duration=14_000.0,
                      channel="rev-mp0", magnitude=1.0, seed=5),
            name="dup",
        )
        clean = self.run_dbo(None)
        faulted = self.run_dbo(plan)
        assert faulted.channels["rev-mp0"]["duplicated"] > 0
        assert faulted.counters["ob_retransmits_ignored"] > 0
        assert trade_ordering_digest(faulted) == trade_ordering_digest(clean)

    def test_forward_duplicates_are_deduped_at_the_channel(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="duplicate_delivery", at=2_000.0, duration=14_000.0,
                      channel="fwd-mp1", magnitude=1.0, seed=6),
            name="dup",
        )
        clean = self.run_dbo(None)
        faulted = self.run_dbo(plan)
        channel = faulted.channels["fwd-mp1"]
        assert channel["duplicated"] > 0
        assert channel["deduped"] == channel["duplicated"]
        assert trade_ordering_digest(faulted) == trade_ordering_digest(clean)

    def test_direct_reverse_duplicates_never_reach_the_matching_engine(self):
        def run(with_fault):
            deployment = build_deployment("direct", quiet_specs(), seed=2)
            if with_fault:
                plan = FaultSchedule.of(
                    FaultSpec(kind="duplicate_delivery", at=1_000.0,
                              duration=10_000.0, channel="rev-mp0",
                              magnitude=1.0, seed=4),
                    name="dup",
                )
                FaultInjector(plan).arm(deployment)
            return deployment.run(duration=DURATION)

        clean = run(False)
        faulted = run(True)
        assert faulted.channels["rev-mp0"]["deduped"] > 0
        assert trade_ordering_digest(faulted) == trade_ordering_digest(clean)

    def test_named_dup_plan_registered(self):
        assert "dup-delivery" in CHAOS_PLANS
        plan = make_plan("dup-delivery", 10_000.0, 4)
        assert {f.kind for f in plan} == {"duplicate_delivery"}
        assert all(f.channel is not None for f in plan)


class TestChannelCountersInSummaries:
    def test_summary_to_dict_carries_channels(self):
        from repro.experiments.runner import run_scheme, summarize

        result = run_scheme("dbo", quiet_specs(2), duration=5_000.0, seed=1)
        summary = summarize(result, with_bound=False)
        doc = summary_to_dict(summary)
        assert set(doc["channels"]) == set(result.channels)
        assert doc["channels"]["fwd-mp0"]["sent"] > 0
