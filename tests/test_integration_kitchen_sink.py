"""The kitchen-sink test: every optional feature enabled at once.

Features compose or they don't: this run turns on sharded OBs, OB
service-time modeling, sync-assisted delivery, a live book, an external
news stream, packet loss on one path, a straggler threshold and a
mid-run RB crash — and still demands sane fairness, bounded latency,
and internal-consistency invariants.
"""

import pytest

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.feed import FeedConfig
from repro.metrics.fairness import evaluate_fairness, pairwise_correct
from repro.net.latency import UniformJitterLatency
from repro.participants.response_time import UniformResponseTime
from repro.participants.strategies import MarketMaker, SpeedRacer

N = 6
DURATION = 20_000.0
CRASH_AT = 14_000.0


@pytest.fixture(scope="module")
def deployment_and_result():
    specs = []
    for i in range(N):
        kwargs = {}
        if i == 1:
            kwargs = dict(loss_probability=0.02, reverse_loss_probability=0.0,
                          recovery_delay=300.0)
        specs.append(
            NetworkSpec(
                forward=UniformJitterLatency(10.0 + i, 3.0, seed=700 + 2 * i),
                reverse=UniformJitterLatency(10.0 + i, 3.0, seed=701 + 2 * i),
                **kwargs,
            )
        )

    class OpportunityMaker(MarketMaker):
        """Quotes only on opportunity points."""

        def on_point(self, point):
            if not point.is_opportunity:
                return []
            return super().on_point(point)

    def strategies(index):
        return OpportunityMaker(quantity=3) if index == 0 else SpeedRacer(seed=index)

    deployment = DBODeployment(
        specs,
        params=DBOParams(delta=20.0, kappa=0.25, tau=20.0, straggler_threshold=800.0),
        feed_config=FeedConfig(interval=40.0, price_volatility=0.0),
        response_time_model=UniformResponseTime(low=5.0, high=19.0, seed=4),
        strategy_factory=strategies,
        execute_trades=True,
        seed=11,
        n_ob_shards=3,
        sync_target_c1=25.0,
        sync_error=1.0,
        ob_service_time=0.3,
    )
    deployment.add_external_source(
        "news", UniformJitterLatency(1500.0, 800.0, seed=99), mean_interval=1_500.0,
        seed=9,
    )
    deployment.engine.schedule_at(
        CRASH_AT, lambda: deployment.release_buffers[5].crash()
    )
    result = deployment.run(duration=DURATION, drain=40_000.0)
    return deployment, result


class TestKitchenSink:
    def test_market_kept_moving(self, deployment_and_result):
        deployment, result = deployment_and_result
        assert len(result.completed_trades) > 1000
        assert deployment.ces.matching_engine.book.executions

    def test_healthy_races_fair(self, deployment_and_result):
        deployment, result = deployment_and_result
        lossy_affected = set(deployment.release_buffers[1].recovered_point_ids)
        if lossy_affected:
            horizon = max(lossy_affected) + 25
            lossy_affected |= set(range(min(lossy_affected), horizon + 1))
        news_ids = {p.point_id for p in deployment.stream_merger.merged}
        verdicts = []
        for trigger, trades in result.trades_by_trigger().items():
            if trigger in lossy_affected:
                continue
            clean = [
                t for t in trades
                if t.mp_id not in ("mp5",)  # the crashed participant
                and t.submission_time < CRASH_AT  # pre-crash only for mp1 recovery overlap
            ]
            for i in range(len(clean)):
                for j in range(i + 1, len(clean)):
                    v = pairwise_correct(clean[i], clean[j])
                    if v is not None:
                        verdicts.append(v)
        assert verdicts
        assert sum(verdicts) / len(verdicts) > 0.999

    def test_features_all_engaged(self, deployment_and_result):
        deployment, result = deployment_and_result
        counters = result.counters
        assert counters["master_summaries_processed"] > 0
        assert counters["ob_messages_served"] > 0
        assert counters["sync_targets_met"] > 0
        assert deployment.stream_merger.events_merged > 0
        assert deployment.release_buffers[1].recovered_point_ids

    def test_crash_contained(self, deployment_and_result):
        deployment, result = deployment_and_result
        # Healthy racers' post-crash speed trades still complete quickly.
        # (Native ticks only: news points carry their own arrival delays.)
        native_ids = {
            p.point_id
            for p in deployment.ces.feed.generated
            if p.payload is None and p.is_opportunity
        }
        post_crash = [
            t for t in result.completed_trades
            if t.mp_id not in ("mp0", "mp5")
            and t.trigger_point in native_ids
            and t.submission_time > CRASH_AT + 2_000.0
        ]
        assert post_crash
        latencies = [
            t.forward_time - result.generation_times[t.trigger_point] - t.response_time
            for t in post_crash
        ]
        assert max(latencies) < 2_000.0
