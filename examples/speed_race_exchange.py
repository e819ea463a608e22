#!/usr/bin/env python
"""A full exchange with real matching: who captures the opportunities?

This example turns trade *ordering* into trade *outcomes*.  A market
maker quotes around every tick; speed racers cross the spread after tiny,
known response times.  The matching engine executes for real (price-time
priority on a limit order book), so whoever is sequenced first at the CES
captures the maker's liquidity.

We run the identical market twice — Direct delivery and DBO — and compare
how often the *genuinely fastest* racer in each race captured the fill.
Under Direct, the racer with the luckiest network path wins; under DBO
the fastest responder wins, as an on-premise exchange would guarantee.

Run:  python examples/speed_race_exchange.py
"""

from collections import Counter
from functools import partial

from repro import DBOParams, cloud_specs
from repro.core.system import DBODeployment
from repro.exchange.accounting import Ledger
from repro.exchange.feed import FeedConfig
from repro.experiments.runner import build_deployment
from repro.participants.response_time import RaceResponseTime
from repro.participants.strategies import MarketMaker, SpeedRacer

N_RACERS = 4
DURATION_US = 40_000.0


def build_and_run(scheme_cls, specs, **kwargs):
    """Run one scheme with a maker (mp0) + racers (mp1..) and real matching."""

    def strategies(index):
        if index == 0:
            return MarketMaker(half_spread=0.05, quantity=N_RACERS)
        return SpeedRacer(seed=index)

    deployment = scheme_cls(
        specs,
        feed_config=FeedConfig(interval=40.0, price_volatility=0.0),
        # mp0 (the maker) races too, but we only score mp1..mpN below.
        response_time_model=RaceResponseTime(
            N_RACERS + 1, low=5.0, high=18.0, gap=0.2, seed=3
        ),
        strategy_factory=strategies,
        execute_trades=True,
        seed=9,
        **kwargs,
    )
    result = deployment.run(duration=DURATION_US)
    return deployment, result


def score_races(deployment, result):
    """Per race: did the fastest racer get the earliest execution slot?"""
    me = deployment.ces.matching_engine
    fastest_won = 0
    races = 0
    for trigger, trades in result.trades_by_trigger().items():
        racers = [t for t in trades if t.mp_id != "mp0" and t.completed]
        if len(racers) < 2:
            continue
        races += 1
        fastest = min(racers, key=lambda t: t.response_time)
        first_sequenced = min(racers, key=lambda t: t.position)
        if fastest.key == first_sequenced.key:
            fastest_won += 1
    return fastest_won, races


def fill_counts(deployment):
    """How many executed lots each racer captured."""
    counts = Counter()
    for execution in deployment.ces.matching_engine.book.executions:
        for key in (execution.buy_key, execution.sell_key):
            if key[0] != "mp0":
                counts[key[0]] += execution.quantity
    return counts


def main() -> None:
    for label, scheme_cls, kwargs in [
        ("Direct delivery (FCFS)", partial(build_deployment, "direct"), {}),
        ("DBO", DBODeployment, {"params": DBOParams(delta=20.0)}),
    ]:
        specs = cloud_specs(N_RACERS + 1, seed=12)
        deployment, result = build_and_run(scheme_cls, specs, **kwargs)
        won, races = score_races(deployment, result)
        fills = fill_counts(deployment)
        executions = len(deployment.ces.matching_engine.book.executions)
        ledger = Ledger()
        ledger.apply_all(deployment.ces.matching_engine.book.executions)
        mark = deployment.ces.feed.generated[-1].price
        pnl = {
            owner: round(profit, 2)
            for owner, profit, _, _ in ledger.pnl_table(mark)
        }
        print(f"=== {label} ===")
        print(f"  races scored:              {races}")
        print(f"  fastest racer sequenced 1st: {won} ({100.0 * won / max(races,1):.1f} %)")
        print(f"  executions on the book:    {executions}")
        print(f"  lots captured per racer:   {dict(sorted(fills.items()))}")
        print(f"  marked PnL (zero-sum):     {pnl}")
        print()


if __name__ == "__main__":
    main()
