"""Tests for the deployment extensions: Poisson feeds, proxy participants,
self-match prevention."""

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.feed import FeedConfig, MarketDataFeed
from repro.exchange.messages import Side, TradeOrder
from repro.exchange.order_book import LimitOrderBook
from repro.metrics.fairness import evaluate_fairness, pairwise_correct
from repro.net.latency import ConstantLatency
from repro.participants.response_time import RaceResponseTime, UniformResponseTime


class TestPoissonFeed:
    def test_gaps_are_exponential_ish(self):
        feed = MarketDataFeed(FeedConfig(interval=100.0, mode="poisson", seed=3))
        gaps = [feed.next_gap() for _ in range(5000)]
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(100.0, rel=0.1)
        assert min(gaps) > 0

    def test_periodic_gap_is_constant(self):
        feed = MarketDataFeed(FeedConfig(interval=40.0))
        assert feed.next_gap() == 40.0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FeedConfig(mode="fractal")

    def test_dbo_on_poisson_feed_stays_fair(self):
        deployment = DBODeployment(
            default_network_specs(3, seed=5),
            feed_config=FeedConfig(interval=200.0, mode="poisson"),
            response_time_model=UniformResponseTime(low=2.0, high=15.0, seed=1),
            seed=2,
        )
        result = deployment.run(duration=20_000.0)
        assert len(result.generation_times) > 20
        assert evaluate_fairness(result).ratio == 1.0
        assert result.completion_ratio() == 1.0


class TestProxyParticipant:
    """§3 Assumptions: an off-cloud participant trades through a cloud
    proxy; it is disadvantaged, everyone else's fairness is untouched."""

    def test_proxy_disadvantaged_others_unaffected(self):
        specs = [
            NetworkSpec(
                forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i)
            )
            for i in range(3)
        ]
        # mp2 sits outside the cloud: 400 µs each way to its proxy RB.
        specs[2] = NetworkSpec(
            forward=specs[2].forward,
            reverse=specs[2].reverse,
            rb_to_mp=ConstantLatency(400.0),
            mp_to_rb=ConstantLatency(400.0),
        )
        rt = RaceResponseTime(3, low=5.0, high=15.0, gap=1.0, seed=6)
        deployment = DBODeployment(
            specs, params=DBOParams(delta=20.0), response_time_model=rt, seed=6
        )
        result = deployment.run(duration=15_000.0)
        races = result.trades_by_trigger()
        cloud_verdicts, proxy_wins = [], 0
        proxy_races = 0
        for trades in races.values():
            cloud = [t for t in trades if t.mp_id != "mp2"]
            for i in range(len(cloud)):
                for j in range(i + 1, len(cloud)):
                    v = pairwise_correct(cloud[i], cloud[j])
                    if v is not None:
                        cloud_verdicts.append(v)
            proxy = [t for t in trades if t.mp_id == "mp2" and t.completed]
            if proxy and len(trades) > 1:
                proxy_races += 1
                if min(trades, key=lambda t: t.position).mp_id == "mp2":
                    proxy_wins += 1
        # In-cloud participants keep perfect fairness among themselves.
        assert cloud_verdicts and all(cloud_verdicts)
        # The proxy participant essentially never wins a race (its 800 µs
        # round trip to the proxy dwarfs the µs-scale margins).
        assert proxy_races > 0
        assert proxy_wins == 0


class TestSelfMatchPrevention:
    def test_disabled_by_default(self):
        book = LimitOrderBook()
        book.submit(TradeOrder("a", 0, Side.SELL, price=10.0, quantity=1))
        fills = book.submit(TradeOrder("a", 1, Side.BUY, price=10.0, quantity=1))
        assert len(fills) == 1  # self-match allowed by default

    def test_cancel_resting_policy(self):
        book = LimitOrderBook(prevent_self_match=True)
        book.submit(TradeOrder("a", 0, Side.SELL, price=10.0, quantity=1))
        book.submit(TradeOrder("b", 0, Side.SELL, price=10.0, quantity=1))
        fills = book.submit(TradeOrder("a", 1, Side.BUY, price=10.0, quantity=1))
        # a's resting sell is cancelled; the fill comes from b.
        assert len(fills) == 1
        assert fills[0].sell_key == ("b", 0)
        assert book.self_match_cancels == 1
        assert ("a", 0) not in book

    def test_only_own_orders_cancelled(self):
        book = LimitOrderBook(prevent_self_match=True)
        book.submit(TradeOrder("b", 0, Side.SELL, price=10.0, quantity=2))
        fills = book.submit(TradeOrder("a", 0, Side.BUY, price=10.0, quantity=2))
        assert sum(f.quantity for f in fills) == 2
        assert book.self_match_cancels == 0
