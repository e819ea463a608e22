"""Integration tests: OB failover, shard failure, and RB-crash timing.

The headline claim: with acks + retransmission and a standby OB that
inherits the release log, an OB crash loses **zero** trades end-to-end;
the ablation without retransmission shows the loss the paper accepts.
"""

import pytest

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.release_buffer import RetransmitPolicy
from repro.core.system import DBODeployment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.net.latency import ConstantLatency


def quiet_specs(n=4):
    return [
        NetworkSpec(forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i))
        for i in range(n)
    ]


CRASH_AT = 10_000.0
DURATION = 25_000.0


def fail(deployment, endpoint):
    """Scripted recovery: crash ``endpoint``, then run its recover half."""
    deployment.playbooks.crash(endpoint)
    assert deployment.playbooks.recover(endpoint, deployment.engine.now)


class TestOBFailover:
    def build(self, policy=None):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=4,
            retransmit_policy=policy,
        )
        deployment.engine.schedule_at(CRASH_AT, fail, args=(deployment, "ob"))
        return deployment

    def test_with_retransmission_zero_trades_lost(self):
        policy = RetransmitPolicy(timeout=500.0, backoff=2.0, max_retries=5)
        result = self.build(policy).run(duration=DURATION)
        # The crash DID destroy queued trades...
        assert result.counters["ob_failovers"] == 1
        assert result.counters["trades_lost_to_crash"] >= 1
        # ...but retransmission re-delivered every one of them.
        assert result.counters["trades_retransmitted"] >= 1
        assert result.counters["retransmits_abandoned"] == 0
        assert result.completion_ratio() == 1.0

    def test_ablation_without_retransmission_loses_trades(self):
        result = self.build(policy=None).run(duration=DURATION)
        assert result.counters["ob_failovers"] == 1
        assert result.counters["trades_lost_to_crash"] >= 1
        assert result.completion_ratio() < 1.0

    def test_failover_preserves_no_duplicates(self):
        # Retransmits that raced the failover must be deduped, not
        # double-submitted to the matching engine.
        policy = RetransmitPolicy(timeout=500.0)
        result = self.build(policy).run(duration=DURATION)
        keys = [
            (record.mp_id, record.trade_seq)
            for record in result.trades
        ]
        assert len(keys) == len(set(keys))

    def test_failover_requires_flat_ob(self):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=4, n_ob_shards=2
        )
        deployment.run(duration=1_000.0)
        with pytest.raises(RuntimeError):
            deployment.playbooks.crash("ob")


class TestShardFailure:
    def build(self, policy=None):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=4,
            n_ob_shards=2, retransmit_policy=policy,
        )
        deployment.engine.schedule_at(
            CRASH_AT, fail, args=(deployment, "shard:shard-1")
        )
        return deployment

    def test_survivors_adopt_orphans_and_market_continues(self):
        policy = RetransmitPolicy(timeout=500.0, backoff=2.0, max_retries=5)
        result = self.build(policy).run(duration=DURATION)
        assert result.counters["shard_failures"] == 1
        assert result.completion_ratio() == 1.0

    def test_ablation_without_retransmission(self):
        result = self.build(policy=None).run(duration=DURATION)
        assert result.counters["shard_failures"] == 1
        # Whatever sat in the dead shard's queue stays lost.
        assert result.completion_ratio() <= 1.0

    def test_unknown_and_double_failure_rejected(self):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=4, n_ob_shards=2
        )
        deployment.engine.schedule_at(
            CRASH_AT, fail, args=(deployment, "shard:shard-1")
        )
        deployment.run(duration=DURATION)
        playbooks = deployment.playbooks
        with pytest.raises(KeyError):
            playbooks.crash("shard:shard-99")
        with pytest.raises(RuntimeError):
            playbooks.crash("shard:shard-1")  # already failed
        playbooks.crash("shard:shard-0")
        # No survivors left: the recovery cannot run.
        assert playbooks.recover("shard:shard-0", deployment.engine.now) is False
        assert "shard:shard-0" in playbooks.down

    def test_scripted_failure_without_survivors_raises(self):
        deployment = DBODeployment(
            quiet_specs(), params=DBOParams(delta=20.0), seed=4, n_ob_shards=2
        )
        FaultInjector(FaultSchedule.of(
            FaultSpec(kind="shard_failure", at=CRASH_AT, target="shard-1"),
            FaultSpec(kind="shard_failure", at=CRASH_AT + 1_000.0, target="shard-0"),
        )).arm(deployment)
        with pytest.raises(RuntimeError, match="no recovery possible"):
            deployment.run(duration=DURATION)


class TestRBCrashStragglerTiming:
    """§4.2.1: a crashed RB's participant is ejected via silent-straggler
    detection — and the ejection happens on the detection threshold, not
    immediately."""

    def run_with_threshold(self, threshold):
        deployment = DBODeployment(
            quiet_specs(),
            params=DBOParams(delta=20.0, straggler_threshold=threshold),
            seed=4,
        )
        deployment.engine.schedule_at(
            CRASH_AT, lambda: deployment.release_buffers[0].crash()
        )
        result = deployment.run(duration=DURATION)
        return deployment, result

    def test_dead_participant_ejected_after_threshold(self):
        deployment, result = self.run_with_threshold(threshold=1_000.0)
        assert result.counters["straggler_ejections"] >= 1
        assert "mp0" in deployment.ordering_buffer.straggler_ids()
        # The rest of the market finished its trades.
        others = [r for r in result.trades if r.mp_id != "mp0"]
        assert others

    def test_ejection_not_before_threshold(self):
        # With a threshold longer than the remaining run, the dead RB is
        # never ejected and the OB keeps waiting (stall semantics).
        deployment, result = self.run_with_threshold(threshold=100_000.0)
        assert result.counters.get("straggler_ejections", 0) == 0
        assert deployment.ordering_buffer.queue_depth >= 0  # no ejection path ran
        assert "mp0" not in deployment.ordering_buffer.straggler_ids()
