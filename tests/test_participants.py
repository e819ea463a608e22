"""Unit tests for participants, strategies, and response-time models."""

import pytest

from repro.exchange.messages import MarketDataPoint, Side
from repro.participants.mp import MarketParticipant
from repro.participants.response_time import (
    FixedResponseTime,
    RaceResponseTime,
    SpeedTieredResponseTime,
    UniformResponseTime,
)
from repro.participants.strategies import MarketMaker, SpeedRacer
from repro.sim.engine import EventEngine


def point(pid, t=0.0, price=100.0, opportunity=True):
    return MarketDataPoint(
        point_id=pid, generation_time=t, price=price, is_opportunity=opportunity
    )


class TestResponseTimeModels:
    def test_uniform_bounds_and_determinism(self):
        model = UniformResponseTime(low=5.0, high=20.0, seed=1)
        values = [model.response_time(0, i) for i in range(500)]
        assert all(5.0 <= v < 20.0 for v in values)
        assert values == [model.response_time(0, i) for i in range(500)]

    def test_uniform_varies_across_participants(self):
        model = UniformResponseTime(seed=1)
        assert model.response_time(0, 7) != model.response_time(1, 7)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformResponseTime(low=10.0, high=5.0)

    def test_fixed(self):
        model = FixedResponseTime(7.0)
        assert model.response_time(3, 99) == 7.0
        with pytest.raises(ValueError):
            FixedResponseTime(-1.0)

    def test_tiered_orders_participants(self):
        model = SpeedTieredResponseTime(base=5.0, tier_gap=2.0, jitter=0.0)
        assert model.response_time(0, 0) < model.response_time(1, 0) < model.response_time(2, 0)

    def test_tiered_jitter_bounded(self):
        model = SpeedTieredResponseTime(base=5.0, tier_gap=1.0, jitter=0.5, seed=2)
        for i in range(100):
            rt = model.response_time(0, i)
            assert 5.0 <= rt < 5.5

    def test_race_ranks_are_permutation(self):
        model = RaceResponseTime(6, gap=0.5, seed=3)
        for pid in range(20):
            ranks = sorted(model.rank(i, pid) for i in range(6))
            assert ranks == list(range(6))

    def test_race_rts_spaced_by_gap(self):
        model = RaceResponseTime(4, gap=0.25, seed=4)
        rts = sorted(model.response_time(i, 11) for i in range(4))
        diffs = [b - a for a, b in zip(rts, rts[1:])]
        assert diffs == pytest.approx([0.25, 0.25, 0.25])

    def test_race_base_in_range(self):
        model = RaceResponseTime(4, low=5.0, high=20.0, gap=0.1, seed=5)
        for pid in range(50):
            fastest = min(model.response_time(i, pid) for i in range(4))
            assert 5.0 <= fastest < 20.0

    def test_race_permutation_varies_by_point(self):
        model = RaceResponseTime(5, gap=1.0, seed=6)
        perms = {tuple(model.rank(i, pid) for i in range(5)) for pid in range(30)}
        assert len(perms) > 5

    def test_race_validation(self):
        with pytest.raises(ValueError):
            RaceResponseTime(0)
        with pytest.raises(ValueError):
            RaceResponseTime(2, gap=0.0)
        with pytest.raises(ValueError):
            RaceResponseTime(2).rank(5, 0)


class TestStrategies:
    def test_speed_racer_one_intent_per_opportunity(self):
        racer = SpeedRacer(seed=1)
        assert len(racer.on_point(point(0))) == 1
        assert racer.on_point(point(1, opportunity=False)) == []

    def test_speed_racer_alternates_sides_eventually(self):
        racer = SpeedRacer(seed=1)
        sides = {racer.on_point(point(i))[0].side for i in range(50)}
        assert sides == {Side.BUY, Side.SELL}

    def test_market_maker_quotes_both_sides(self):
        maker = MarketMaker(half_spread=0.5, quantity=10)
        intents = maker.on_point(point(0, price=100.0))
        assert len(intents) == 2
        buy = next(i for i in intents if i.side is Side.BUY)
        sell = next(i for i in intents if i.side is Side.SELL)
        assert buy.price == 99.5
        assert sell.price == 100.5

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            SpeedRacer(quantity=0)
        with pytest.raises(ValueError):
            MarketMaker(half_spread=0.0)


class TestMarketParticipant:
    def make_mp(self, engine, rt=None, strategy=None):
        submitted = []
        mp = MarketParticipant(
            engine,
            mp_id="mp0",
            mp_index=0,
            response_time_model=rt or FixedResponseTime(5.0),
            strategy=strategy or SpeedRacer(seed=1),
            submitter=submitted.append,
        )
        return mp, submitted

    def test_submits_after_response_time(self):
        engine = EventEngine()
        mp, submitted = self.make_mp(engine)
        engine.schedule_at(10.0, lambda: mp.on_data((point(0),), 10.0))
        engine.run()
        assert len(submitted) == 1
        assert submitted[0].submission_time == 15.0
        assert submitted[0].trigger_point == 0
        assert submitted[0].response_time == 5.0

    def test_ground_truth_recorded(self):
        engine = EventEngine()
        mp, submitted = self.make_mp(engine)
        engine.schedule_at(10.0, lambda: mp.on_data((point(0), point(1)), 10.0))
        engine.run()
        assert mp.trades_submitted == 2
        assert [o.trade_seq for o in submitted] == [0, 1]
        # One typed column per ground-truth field, indexed by trade_seq.
        assert list(mp.trigger_points) == [0, 1]
        assert list(mp.response_times) == [5.0, 5.0]
        assert list(mp.submission_times) == [15.0, 15.0]

    def test_non_opportunity_points_ignored(self):
        engine = EventEngine()
        mp, submitted = self.make_mp(engine)
        engine.schedule_at(10.0, lambda: mp.on_data((point(0, opportunity=False),), 10.0))
        engine.run()
        assert submitted == []
        assert mp.points_seen == 1

    def test_requires_submitter(self):
        engine = EventEngine()
        mp = MarketParticipant(engine, "mp0", 0)
        with pytest.raises(RuntimeError):
            mp.on_data((point(0),), 0.0)

    def test_multiple_intents_share_response_time(self):
        engine = EventEngine()
        mp, submitted = self.make_mp(engine, strategy=MarketMaker())
        engine.schedule_at(10.0, lambda: mp.on_data((point(0),), 10.0))
        engine.run()
        assert len(submitted) == 2
        assert submitted[0].submission_time == submitted[1].submission_time
        assert submitted[0].trade_seq != submitted[1].trade_seq


class TestAggressiveTaker:
    def test_crosses_with_ioc(self):
        from repro.exchange.messages import TimeInForce
        from repro.participants.strategies import AggressiveTaker

        taker = AggressiveTaker(quantity=3, aggression=1.0)
        intents = taker.on_point(point(0, price=100.0))
        assert len(intents) == 1
        assert intents[0].side is Side.BUY
        assert intents[0].price == 101.0
        assert intents[0].quantity == 3
        assert intents[0].time_in_force is TimeInForce.IOC

    def test_ignores_non_opportunities(self):
        from repro.participants.strategies import AggressiveTaker

        assert AggressiveTaker().on_point(point(0, opportunity=False)) == []

    def test_validation(self):
        from repro.participants.strategies import AggressiveTaker

        with pytest.raises(ValueError):
            AggressiveTaker(quantity=0)

    def test_intent_fields_flow_into_orders(self):
        from repro.exchange.messages import TimeInForce
        from repro.participants.mp import MarketParticipant
        from repro.participants.response_time import FixedResponseTime
        from repro.participants.strategies import AggressiveTaker
        from repro.sim.engine import EventEngine

        engine = EventEngine()
        submitted = []
        mp = MarketParticipant(
            engine,
            "mp0",
            0,
            response_time_model=FixedResponseTime(5.0),
            strategy=AggressiveTaker(quantity=2),
            submitter=submitted.append,
        )
        engine.schedule_at(10.0, lambda: mp.on_data((point(0),), 10.0))
        engine.run()
        assert submitted[0].time_in_force is TimeInForce.IOC
