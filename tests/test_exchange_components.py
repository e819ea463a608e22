"""Unit tests for matching engine, sequencer, feed, CES, and messages."""

import pytest

from repro.core.release_engine import ReleaseEngine
from repro.exchange.ces import CentralExchangeServer
from repro.exchange.feed import FeedConfig, MarketDataFeed
from repro.exchange.matching import MatchingEngine
from repro.exchange.messages import (
    MarketDataBatch,
    MarketDataPoint,
    Side,
    TradeOrder,
)
from repro.ordering import PassthroughPolicy
from repro.sim.engine import EventEngine


def order(mp, seq, side=Side.BUY, price=10.0, qty=1):
    return TradeOrder(mp_id=mp, trade_seq=seq, side=side, price=price, quantity=qty)


class TestMatchingEngine:
    def test_positions_follow_submission_order(self):
        me = MatchingEngine(execute=False)
        me.submit(order("a", 0), forward_time=1.0)
        me.submit(order("b", 0), forward_time=2.0)
        assert me.position_of(("a", 0)) == 0
        assert me.position_of(("b", 0)) == 1
        assert me.ordering() == [("a", 0), ("b", 0)]

    def test_forward_times_recorded(self):
        me = MatchingEngine(execute=False)
        me.submit(order("a", 0), forward_time=7.5)
        assert me.forward_time_of(("a", 0)) == 7.5

    def test_unknown_trade_returns_none(self):
        me = MatchingEngine(execute=False)
        assert me.position_of(("zzz", 1)) is None
        assert me.forward_time_of(("zzz", 1)) is None

    def test_double_forward_rejected(self):
        me = MatchingEngine(execute=False)
        me.submit(order("a", 0), forward_time=1.0)
        with pytest.raises(ValueError):
            me.submit(order("a", 0), forward_time=2.0)

    def test_execute_mode_produces_fills(self):
        me = MatchingEngine(execute=True)
        me.submit(order("a", 0, Side.SELL, 10.0), forward_time=1.0)
        fills = me.submit(order("b", 0, Side.BUY, 10.0), forward_time=2.0)
        assert len(fills) == 1

    def test_no_execute_mode_skips_book(self):
        me = MatchingEngine(execute=False)
        me.submit(order("a", 0, Side.SELL, 10.0), forward_time=1.0)
        fills = me.submit(order("b", 0, Side.BUY, 10.0), forward_time=2.0)
        assert fills == []
        assert me.trade_count == 2


class TestFCFSSequencer:
    """FCFS is ``PassthroughPolicy`` on the shared release engine."""

    def test_forwards_in_arrival_order(self):
        me = MatchingEngine(execute=False)
        seq = ReleaseEngine(
            PassthroughPolicy(),
            sink=lambda trade, now: me.submit(trade, forward_time=now),
        )
        seq.on_trade(order("a", 0), 4.0, 5.0)
        seq.on_trade(order("b", 0), 5.0, 6.0)
        assert me.ordering() == [("a", 0), ("b", 0)]
        assert me.forward_time_of(("a", 0)) == 5.0
        assert seq.trades_released == 2


class TestFeed:
    def test_cadence_and_ids(self):
        feed = MarketDataFeed(FeedConfig(interval=40.0))
        points = list(feed.points_until(0.0, 200.0))
        assert [p.point_id for p in points] == [0, 1, 2, 3, 4]
        assert [p.generation_time for p in points] == [0.0, 40.0, 80.0, 120.0, 160.0]

    def test_generation_time_lookup(self):
        feed = MarketDataFeed()
        feed.next_point(10.0)
        feed.next_point(50.0)
        assert feed.generation_time_of(1) == 50.0

    def test_prices_stay_positive(self):
        feed = MarketDataFeed(FeedConfig(price_volatility=5.0, initial_price=1.0))
        for i in range(500):
            assert feed.next_point(float(i)).price > 0.0

    def test_opportunity_fraction_all(self):
        feed = MarketDataFeed(FeedConfig(opportunity_fraction=1.0))
        assert all(feed.next_point(float(i)).is_opportunity for i in range(50))

    def test_opportunity_fraction_partial(self):
        feed = MarketDataFeed(FeedConfig(opportunity_fraction=0.3, seed=5))
        flags = [feed.next_point(float(i)).is_opportunity for i in range(5000)]
        assert 0.2 < sum(flags) / len(flags) < 0.4

    def test_deterministic(self):
        a = MarketDataFeed(FeedConfig(seed=3))
        b = MarketDataFeed(FeedConfig(seed=3))
        for i in range(20):
            assert a.next_point(float(i)).price == b.next_point(float(i)).price

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeedConfig(interval=0.0)
        with pytest.raises(ValueError):
            FeedConfig(opportunity_fraction=1.5)


class TestCES:
    def test_generates_on_cadence_until_stop(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine, feed_config=FeedConfig(interval=40.0))
        received = []
        ces.set_distributor(lambda point: received.append(point.generation_time))
        ces.start(start_time=0.0, stop_time=200.0)
        engine.run(until=1000.0)
        assert received == [0.0, 40.0, 80.0, 120.0, 160.0]

    def test_requires_distributor(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine)
        with pytest.raises(RuntimeError):
            ces.start()

    def test_start_twice_rejected(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine)
        ces.set_distributor(lambda p: None)
        ces.start(stop_time=10.0)
        with pytest.raises(RuntimeError):
            ces.start(stop_time=10.0)

    def test_generation_time_accessor(self):
        engine = EventEngine()
        ces = CentralExchangeServer(engine, feed_config=FeedConfig(interval=10.0))
        ces.set_distributor(lambda p: None)
        ces.start(stop_time=35.0)
        engine.run(until=100.0)
        assert ces.generation_time_of(2) == 20.0
        assert ces.points_generated == 4


class TestMessages:
    def test_batch_requires_points(self):
        with pytest.raises(ValueError):
            MarketDataBatch(batch_id=0, points=(), close_time=0.0)

    def test_batch_requires_consecutive_ids(self):
        p0 = MarketDataPoint(0, 0.0)
        p2 = MarketDataPoint(2, 80.0)
        with pytest.raises(ValueError):
            MarketDataBatch(batch_id=0, points=(p0, p2), close_time=80.0)

    def test_batch_accessors(self):
        points = tuple(MarketDataPoint(i, 10.0 * i) for i in range(3))
        batch = MarketDataBatch(batch_id=1, points=points, close_time=20.0)
        assert batch.first_point_id == 0
        assert batch.last_point_id == 2
        assert len(batch) == 3

    def test_trade_key(self):
        assert order("mp3", 7).key == ("mp3", 7)
