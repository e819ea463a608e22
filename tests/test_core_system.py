"""Integration tests for the full DBO deployment."""

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.system import DBODeployment
from repro.exchange.feed import FeedConfig
from repro.metrics.fairness import causality_violations, evaluate_fairness
from repro.metrics.latency import latency_stats, max_rtt_stats, trade_latencies
from repro.metrics.serialization import trade_ordering_digest
from repro.net.latency import ConstantLatency, UniformJitterLatency
from repro.participants.response_time import RaceResponseTime, UniformResponseTime
from repro.theory.fairness_defs import lrtf_violations


def run_dbo(specs, duration=4000.0, params=None, **kwargs):
    deployment = DBODeployment(specs, params=params or DBOParams(), **kwargs)
    return deployment, deployment.run(duration=duration)


class TestEndToEnd:
    def test_removed_extremes_knob_is_rejected(self):
        # The scan fallback is gone; the dead knob must not be swallowed.
        with pytest.raises(TypeError):
            DBODeployment(default_network_specs(2, seed=5), ob_incremental_extremes=False)

    def test_perfect_fairness_on_asymmetric_network(self):
        specs = default_network_specs(4, seed=5)
        _, result = run_dbo(specs)
        report = evaluate_fairness(result)
        assert report.total_pairs > 100
        assert report.ratio == 1.0

    def test_lrtf_holds_formally(self):
        specs = default_network_specs(5, seed=6)
        _, result = run_dbo(specs)
        assert lrtf_violations(result, delta=20.0) == []

    def test_causality_never_violated(self):
        specs = default_network_specs(4, seed=7)
        _, result = run_dbo(specs)
        assert causality_violations(result) == 0

    def test_all_trades_complete_after_drain(self):
        specs = default_network_specs(3, seed=8)
        _, result = run_dbo(specs)
        assert result.completion_ratio() == 1.0

    def test_deterministic_given_seed(self):
        specs = default_network_specs(3, seed=9)
        _, r1 = run_dbo(specs, seed=3)
        specs2 = default_network_specs(3, seed=9)
        _, r2 = run_dbo(specs2, seed=3)
        assert [t.forward_time for t in r1.trades] == [t.forward_time for t in r2.trades]
        assert [t.position for t in r1.trades] == [t.position for t in r2.trades]

    def test_latency_at_least_max_rtt_bound(self):
        specs = default_network_specs(4, seed=10)
        _, result = run_dbo(specs)
        lat = latency_stats(result)
        bound = max_rtt_stats(result)
        assert lat.avg >= bound.avg - 1e-6

    def test_added_latency_within_analysis_bound(self):
        """§4.2.1: at most (1+κ)δ + τ over the bound when the network is
        quiet (constant latency, no queue build-up)."""
        params = DBOParams(delta=20.0, kappa=0.25, tau=20.0)
        specs = [
            NetworkSpec(forward=ConstantLatency(8.0), reverse=ConstantLatency(9.0)),
            NetworkSpec(forward=ConstantLatency(12.0), reverse=ConstantLatency(7.0)),
        ]
        _, result = run_dbo(specs, params=params)
        latencies = trade_latencies(result)
        worst_rtt = max(12.0 + 7.0, 8.0 + 9.0)
        slack = params.batch_span + params.tau
        assert max(latencies) <= worst_rtt + slack + 1e-6

    def test_delivery_gaps_respect_delta(self):
        specs = default_network_specs(3, seed=11)
        deployment, result = run_dbo(specs, params=DBOParams(delta=20.0))
        for rb in deployment.release_buffers:
            times = sorted(set(rb.delivery_times.values()))
            gaps = [b - a for a, b in zip(times, times[1:])]
            # Local-clock drift (±1e-4) slightly rescales the enforced gap.
            assert all(gap >= 20.0 * (1 - 2e-4) for gap in gaps)

    def test_counters_present(self):
        specs = default_network_specs(3, seed=12)
        _, result = run_dbo(specs)
        for key in [
            "rb_max_queue_depth",
            "heartbeats_sent",
            "ob_heartbeats_processed",
            "ob_max_queue_depth",
            "batches_closed",
        ]:
            assert key in result.counters

    def test_network_send_times_recorded_per_point(self):
        specs = default_network_specs(2, seed=13)
        _, result = run_dbo(specs)
        assert set(result.network_send_times) == set(result.generation_times)
        for pid, sent in result.network_send_times.items():
            assert sent >= result.generation_times[pid]

    def test_tight_races_ordered_exactly(self):
        """Sub-µs response margins: DBO must still order perfectly."""
        specs = default_network_specs(6, seed=14)
        rt = RaceResponseTime(6, gap=0.05, seed=3)
        _, result = run_dbo(specs, response_time_model=rt)
        assert evaluate_fairness(result).ratio == 1.0


class TestClockIndependence:
    """DBO must not care about RB clock offsets (Challenge 1)."""

    def test_fairness_unaffected_by_extreme_offsets(self):
        specs = default_network_specs(4, seed=15)
        deployment = DBODeployment(specs, seed=1, rb_clock_drift=2e-4)
        result = deployment.run(duration=4000.0)
        assert evaluate_fairness(result).ratio == 1.0

    def test_zero_drift_and_high_drift_agree_on_ordering(self):
        orderings = []
        for drift in (0.0, 2e-4):
            specs = default_network_specs(4, seed=16)
            deployment = DBODeployment(specs, seed=2, rb_clock_drift=drift)
            result = deployment.run(duration=3000.0)
            orderings.append(
                sorted((t.key for t in result.completed_trades), key=lambda k: k)
            )
            assert evaluate_fairness(result).ratio == 1.0
        assert orderings[0] == orderings[1]


class TestShardedDeployment:
    def test_sharded_ob_preserves_fairness(self):
        specs = default_network_specs(6, seed=17)
        deployment = DBODeployment(specs, n_ob_shards=3, seed=4)
        result = deployment.run(duration=3000.0)
        assert evaluate_fairness(result).ratio == 1.0
        assert result.completion_ratio() == 1.0

    def test_sharded_matches_single_ob_ordering(self):
        def run(n_shards):
            specs = default_network_specs(4, seed=18)
            deployment = DBODeployment(specs, n_ob_shards=n_shards, seed=5)
            result = deployment.run(duration=3000.0)
            me = deployment.ces.matching_engine
            return me.ordering()

        assert run(1) == run(2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_shard_plane_orders_like_the_flat_ob(self, seed):
        """One builder, five shapes: none may be visible in the ordering."""
        from repro.experiments.scenarios import cloud_specs

        planes = {
            "flat": {},
            "eager, direct": dict(n_ob_shards=4),
            "eager, 3 us hop": dict(
                n_ob_shards=4, shard_master_latency=ConstantLatency(3.0)
            ),
            "depth-1 tree": dict(n_ob_shards=4, topology=AggregationTopology(depth=1)),
            "depth-2 tree": dict(topology=AggregationTopology(depth=2, fanout=2)),
            "fanout > N": dict(topology=AggregationTopology(depth=3, fanout=128)),
        }
        digests = {}
        for name, kwargs in planes.items():
            deployment = DBODeployment(cloud_specs(64, seed=seed), seed=seed, **kwargs)
            result = deployment.run(duration=1500.0, drain=1500.0)
            assert result.completion_ratio() == 1.0, name
            digests[name] = trade_ordering_digest(result)
        assert set(digests.values()) == {digests["flat"]}, digests

    def test_tree_wider_than_the_exchange_orders_like_the_flat_ob(self):
        # N = 3 under a fanout-16, depth-3 tree: one shard, no interior
        # level — the plan collapses, and the ordering must not notice.
        specs = default_network_specs(3, seed=5)
        flat = DBODeployment(specs, seed=5).run(duration=5000.0)
        deployment = DBODeployment(
            default_network_specs(3, seed=5), seed=5,
            topology=AggregationTopology(fanout=16, depth=3),
        )
        tree = deployment.run(duration=5000.0)
        assert deployment.n_ob_shards == 1
        assert tree.completion_ratio() == 1.0
        assert trade_ordering_digest(tree) == trade_ordering_digest(flat)

    def test_master_processes_fewer_messages_than_flat_heartbeats(self):
        specs = default_network_specs(8, seed=19)
        deployment = DBODeployment(specs, n_ob_shards=4, seed=6)
        result = deployment.run(duration=3000.0)
        assert result.counters["shard_heartbeats_processed"] > 0
        assert result.counters["master_summaries_processed"] > 0


class TestSlowResponders:
    def test_fairness_holds_just_past_horizon_with_stable_network(self):
        """§6.3.2: RT > δ stays fair when inter-delivery times are equal
        (here: constant latency ⇒ exactly equal)."""
        specs = [
            NetworkSpec(forward=ConstantLatency(10.0), reverse=ConstantLatency(10.0)),
            NetworkSpec(forward=ConstantLatency(14.0), reverse=ConstantLatency(12.0)),
            NetworkSpec(forward=ConstantLatency(18.0), reverse=ConstantLatency(8.0)),
        ]
        rt = UniformResponseTime(low=25.0, high=35.0, seed=5)  # > δ = 20
        _, result = run_dbo(specs, duration=4000.0, response_time_model=rt)
        assert evaluate_fairness(result).ratio == 1.0
