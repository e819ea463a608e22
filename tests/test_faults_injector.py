"""Tests for the fault injector: validation, firing, and determinism."""

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.system import DBODeployment
from repro.experiments.runner import build_deployment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.metrics.serialization import trade_ordering_digest
from repro.net.latency import ConstantLatency, DegradedLatency


def specs(n=3):
    return [
        NetworkSpec(forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i))
        for i in range(n)
    ]


def dbo(seed=3, **kwargs):
    return DBODeployment(specs(), params=DBOParams(delta=20.0), seed=seed, **kwargs)


class TestArmValidation:
    def test_unknown_target_rejected(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="rb_crash", at=10.0, target="mp99")
        )
        with pytest.raises(ValueError, match="unknown participant"):
            FaultInjector(plan).arm(dbo())

    def test_rb_crash_needs_dbo(self):
        plan = FaultSchedule.of(FaultSpec(kind="rb_crash", at=10.0, target="mp0"))
        with pytest.raises(ValueError, match="DBO"):
            FaultInjector(plan).arm(build_deployment("direct", specs(), seed=3))

    def test_ob_failover_rejected_on_sharded_topology(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        with pytest.raises(ValueError, match="shard_failure"):
            FaultInjector(plan).arm(dbo(n_ob_shards=2))

    def test_shard_failure_needs_shards(self):
        plan = FaultSchedule.of(FaultSpec(kind="shard_failure", at=10.0, target="shard-0"))
        with pytest.raises(ValueError, match="n_ob_shards"):
            FaultInjector(plan).arm(dbo())

    def test_gateway_stall_needs_gateway(self):
        plan = FaultSchedule.of(FaultSpec(kind="gateway_stall", at=10.0, duration=5.0))
        with pytest.raises(ValueError, match="egress_gateway"):
            FaultInjector(plan).arm(dbo())

    def test_cannot_arm_twice(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        injector = FaultInjector(plan)
        injector.arm(dbo())
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm(dbo())

    def test_cannot_arm_after_build(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        deployment = dbo()
        deployment.run(duration=500.0)
        with pytest.raises(RuntimeError, match="before the deployment builds"):
            FaultInjector(plan).arm(deployment)


class TestFiring:
    def test_burst_loss_fires_and_recovers_on_named_link(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="link_burst_loss", at=1_000.0, duration=2_000.0,
                      target="mp0", magnitude=0.9, seed=5)
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        result = deployment.run(duration=6_000.0)
        assert injector.faults_fired == 1
        assert injector.faults_recovered == 1
        assert [entry["action"] for entry in injector.log] == ["fire", "recover"]
        assert result.counters["packets_dropped_in_burst"] > 0

    def test_partition_blackholes_only_the_target(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=1_000.0, duration=1_000.0,
                      target="mp1", direction="forward")
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        deployment.run(duration=4_000.0)
        fwd = {c.name: c for c in deployment.transport}
        assert fwd["fwd-mp1"].packets_blackholed > 0
        assert fwd["fwd-mp0"].packets_blackholed == 0
        # Recovered: blackhole switched back off.
        assert not fwd["fwd-mp1"].blackhole

    def test_latency_degradation_wraps_spec_before_build(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="latency_degradation", at=1_000.0, duration=1_000.0,
                      target="mp0", magnitude=500.0, direction="both")
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        assert isinstance(deployment.specs[0].forward, DegradedLatency)
        assert isinstance(deployment.specs[0].reverse, DegradedLatency)
        assert isinstance(deployment.specs[1].forward, ConstantLatency)
        deployment.run(duration=4_000.0)
        # Cleared after recovery.
        forward = deployment.specs[0].forward
        assert (forward.extra, forward.factor) == (0.0, 1.0)

    def test_channel_addressed_latency_degradation(self):
        # A channel-addressed degradation wraps the channel's own model
        # when it fires (Channel.degrade) and heals it on recovery.
        plan = FaultSchedule.of(
            FaultSpec(kind="latency_degradation", at=1_000.0, duration=1_000.0,
                      channel="fwd-mp0", magnitude=500.0)
        )
        deployment = dbo()
        FaultInjector(plan).arm(deployment)
        deployment.run(duration=4_000.0)
        model = deployment.transport.channel("fwd-mp0").latency_model
        assert isinstance(model, DegradedLatency)
        assert model.degradations_applied == 1
        assert (model.extra, model.factor) == (0.0, 1.0)
        assert not isinstance(deployment.transport.channel("fwd-mp1").latency_model, DegradedLatency)

    def test_rb_crash_and_restart(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="rb_crash", at=1_000.0, duration=1_000.0, target="mp2")
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        result = deployment.run(duration=5_000.0)
        assert result.counters["rb_restarts"] == 1
        assert result.counters["batches_dropped_crashed"] > 0
        rb = deployment._rb_by_id["mp2"]
        assert not rb.crashed

    def test_summary_is_deterministic_record(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=500.0, duration=250.0, target="mp0"),
            name="p",
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        deployment.run(duration=2_000.0)
        summary = injector.summary()
        assert summary["plan"] == "p"
        assert summary["faults_fired"] == 1
        assert summary["log"][0]["time"] == 500.0
        assert summary["log"][1]["time"] == 750.0


class TestDeterminism:
    PLAN = FaultSchedule.of(
        FaultSpec(kind="link_burst_loss", at=800.0, duration=1_200.0,
                  target="mp0", magnitude=0.4, seed=2),
        FaultSpec(kind="latency_degradation", at=1_500.0, duration=1_000.0,
                  target="mp1", magnitude=120.0),
        FaultSpec(kind="rb_crash", at=2_000.0, duration=800.0, target="mp2"),
    )

    def run_once(self):
        deployment = dbo(seed=11)
        injector = FaultInjector(self.PLAN)
        injector.arm(deployment)
        result = deployment.run(duration=6_000.0)
        return trade_ordering_digest(result), injector.summary(), dict(result.counters)

    def test_same_seed_same_plan_same_outcome(self):
        digest_a, summary_a, counters_a = self.run_once()
        digest_b, summary_b, counters_b = self.run_once()
        assert digest_a == digest_b
        assert summary_a == summary_b
        assert counters_a == counters_b


class TestClockDrift:
    def plan(self, magnitude=0.05, duration=2_000.0):
        return FaultSchedule.of(
            FaultSpec(kind="clock_drift", at=1_000.0, duration=duration,
                      target="mp0", magnitude=magnitude)
        )

    def test_needs_dbo(self):
        with pytest.raises(ValueError, match="DBO"):
            FaultInjector(self.plan()).arm(build_deployment("direct", specs(), seed=3))

    def test_fires_and_recovers(self):
        deployment = dbo()
        injector = FaultInjector(self.plan())
        injector.arm(deployment)
        deployment.run(duration=6_000.0)
        assert injector.faults_fired == 1
        assert injector.faults_recovered == 1
        rb = deployment._rb_by_id["mp0"]
        assert rb.clock_skews_applied == 1
        # Recovery restored the original drift rate exactly.
        baseline = dbo()
        baseline.run(duration=6_000.0)
        assert rb.local_clock.drift_rate == pytest.approx(
            baseline._rb_by_id["mp0"].local_clock.drift_rate
        )

    def test_skew_keeps_stamps_monotone(self):
        # The continuity re-anchor is the whole point: even a crawling
        # clock (5x slow) must never regress a heartbeat watermark or
        # release stamp.
        from repro.faults.auditor import InvariantAuditor

        deployment = dbo()
        injector = FaultInjector(self.plan(magnitude=-0.8, duration=3_000.0))
        injector.arm(deployment)
        auditor = InvariantAuditor()
        auditor.attach(deployment)
        deployment.run(duration=8_000.0)
        report = auditor.report()
        assert report.ok
        assert report.safety_violations == []

    def test_compound_skews_stack_and_unwind(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="clock_drift", at=1_000.0, duration=4_000.0,
                      target="mp0", magnitude=0.1),
            FaultSpec(kind="clock_drift", at=2_000.0, duration=1_000.0,
                      target="mp0", magnitude=0.2),
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        deployment.run(duration=8_000.0)
        assert injector.faults_fired == 2
        assert injector.faults_recovered == 2
        rb = deployment._rb_by_id["mp0"]
        assert rb.clock_skews_applied == 2
        # clear_clock_skew restores the remembered base rate even after
        # compounding, so the final drift matches an unfaulted twin.
        baseline = dbo()
        baseline.run(duration=8_000.0)
        assert rb.local_clock.drift_rate == pytest.approx(
            baseline._rb_by_id["mp0"].local_clock.drift_rate
        )


class TestTreeApplicability:
    """Arm-time validation asks the deployment which endpoint kinds it
    can crash; an aggregation tree builds shards but no flat OB."""

    def tree(self):
        return DBODeployment(
            default_network_specs(8, seed=3), seed=1,
            topology=AggregationTopology(depth=2, fanout=2),
        )

    def test_shard_failure_arms_and_runs_on_a_tree(self):
        deployment = self.tree()
        plan = FaultSchedule.of(
            FaultSpec(kind="shard_failure", at=1_000.0, target="shard-1")
        )
        FaultInjector(plan).arm(deployment)
        result = deployment.run(duration=3_000.0)
        assert result.counters["shard_failures"] == 1
        assert deployment.playbooks.retired == {"shard:shard-1"}

    def test_ob_failover_rejected_at_arm_on_a_tree(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=1_000.0))
        with pytest.raises(ValueError, match="shard_failure"):
            FaultInjector(plan).arm(self.tree())


class TestNewKindValidation:
    def test_aggregator_failure_needs_tree(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="aggregator_failure", at=10.0, target="agg1-0")
        )
        with pytest.raises(ValueError, match="aggregation tree"):
            FaultInjector(plan).arm(dbo(n_ob_shards=2))

    def test_ces_hiccup_needs_a_ces(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="ces_hiccup", at=10.0, duration=20.0)
        )
        # The DBO deployment has a CES; arming succeeds.
        FaultInjector(plan).arm(dbo())

    def test_detected_mode_needs_supervision(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        with pytest.raises(ValueError, match="supervise"):
            FaultInjector(plan, recovery="detected").arm(dbo())

    def test_unknown_recovery_mode_rejected(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        with pytest.raises(ValueError, match="recovery"):
            FaultInjector(plan, recovery="wishful")

    def test_summary_records_recovery_mode(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=10.0))
        injector = FaultInjector(plan)
        injector.arm(dbo())
        assert injector.summary()["recovery"] == "scripted"


class TestChannelGlobs:
    def test_glob_matches_all_ack_channels(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=100.0, duration=50.0, channel="ack-*")
        )
        from repro.core.release_buffer import RetransmitPolicy
        deployment = dbo(retransmit_policy=RetransmitPolicy())
        injector = FaultInjector(plan)
        injector.arm(deployment)
        deployment.run(duration=1_000.0)
        assert injector.faults_fired == 1
        assert injector.faults_recovered == 1
        # All three participants' ack channels were blackholed.
        dropped = sum(
            channel.packets_blackholed
            for channel in deployment.transport
            if channel.name.startswith("ack-")
        )
        assert dropped > 0

    def test_glob_matching_nothing_raises_at_fire_time(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=100.0, duration=50.0,
                      channel="nonexistent-*")
        )
        deployment = dbo()
        injector = FaultInjector(plan)
        injector.arm(deployment)
        with pytest.raises(KeyError, match="matched no channels"):
            deployment.run(duration=1_000.0)


class TestShardHopFaultsAreCounted:
    """Faults on the ``{shard}->master`` hop reach the run counters.

    The hop used to be a ``Link`` private to ``ShardOB``, invisible to
    ``BaseDeployment._links``: the channel odometer saw the drops, the
    run-level ``packets_*`` counters did not.  Digests and odometers
    are pinned from that parent — only the counters are new.
    """

    DURATION = 6_000.0

    @pytest.mark.parametrize(
        "kind, counter, dropped, digest",
        [
            ("link_burst_loss", "packets_dropped_in_burst", 161, "1c139a385952"),
            ("partition", "packets_blackholed", 357, "f934bf61251e"),
        ],
    )
    def test_counter_equals_channel_dropped(self, kind, counter, dropped, digest):
        from repro.experiments.scenarios import cloud_specs

        deployment = DBODeployment(
            cloud_specs(4, seed=7),
            seed=7,
            n_ob_shards=2,
            shard_master_latency=ConstantLatency(3.0),
        )
        plan = FaultSchedule.of(
            FaultSpec(
                kind=kind,
                at=0.2 * self.DURATION,
                duration=0.3 * self.DURATION,
                channel="shard-0->master",
                magnitude=0.5,
                seed=3,
            )
        )
        FaultInjector(plan).arm(deployment)
        result = deployment.run(duration=self.DURATION)
        assert result.channels["shard-0->master"]["dropped"] == dropped
        assert result.counters[counter] == dropped
        assert trade_ordering_digest(result).startswith(digest)
