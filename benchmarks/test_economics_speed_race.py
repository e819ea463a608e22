"""Economics — who actually makes the money? (the paper's §1-§2 motivation)

Fairness metrics count orderings; this benchmark counts captures.  A
market maker posts a fixed quantity of stale liquidity on every tick;
four racers cross the spread (IOC) to take it.  Only the first-sequenced
racer gets filled.  The racers have *tiered* true speeds — mp1 is always
the genuinely fastest — but mp1 is given the **worst network path**.

Under Direct delivery, the network decides: better-path racers take the
liquidity from the faster trader.  Under DBO, the fastest trader captures
(nearly) everything — "equality of opportunity" with teeth.
"""

from functools import partial

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.accounting import Ledger
from repro.exchange.feed import FeedConfig
from repro.experiments.runner import build_deployment
from repro.metrics.report import render_table
from repro.net.latency import UniformJitterLatency
from repro.participants.response_time import SpeedTieredResponseTime
from repro.participants.strategies import AggressiveTaker, MarketMaker

DURATION_US = 40_000.0
LOTS_PER_TICK = 5


def build_specs():
    """mp0 = maker (neutral path); racers mp1..mp4: mp1 fastest trader,
    worst path; mp4 slowest trader, best path."""
    specs = [
        NetworkSpec(
            forward=UniformJitterLatency(12.0, 2.0, seed=40),
            reverse=UniformJitterLatency(12.0, 2.0, seed=41),
        )
    ]
    for rank in range(1, 5):
        base = 10.0 + (5 - rank) * 3.0  # mp1: 22 µs, mp4: 13 µs
        specs.append(
            NetworkSpec(
                forward=UniformJitterLatency(base, 2.0, seed=42 + 2 * rank),
                reverse=UniformJitterLatency(base, 2.0, seed=43 + 2 * rank),
            )
        )
    return specs


def strategies(index):
    if index == 0:
        return MarketMaker(half_spread=0.05, quantity=LOTS_PER_TICK)
    return AggressiveTaker(quantity=LOTS_PER_TICK)


def run_scheme(cls, **kwargs):
    deployment = cls(
        build_specs(),
        feed_config=FeedConfig(interval=40.0, price_volatility=0.0),
        # mp0 (maker) is index 0 → base RT; racers mp1..mp4 tiered by 2 µs.
        response_time_model=SpeedTieredResponseTime(
            base=5.0, tier_gap=2.0, jitter=0.5, seed=6
        ),
        strategy_factory=strategies,
        execute_trades=True,
        seed=8,
        **kwargs,
    )
    deployment.run(duration=DURATION_US)
    ledger = Ledger()
    ledger.apply_all(deployment.ces.matching_engine.book.executions)
    racer_volume = {
        mp: ledger.account(mp).volume for mp in ["mp1", "mp2", "mp3", "mp4"]
    }
    total = sum(racer_volume.values()) or 1
    return {mp: volume / total for mp, volume in racer_volume.items()}


def run_all():
    shares = {
        "direct": run_scheme(partial(build_deployment, "direct")),
        "dbo": run_scheme(DBODeployment, params=DBOParams(delta=20.0)),
    }
    rows = []
    for scheme, share in shares.items():
        rows.append([scheme] + [share[f"mp{i}"] for i in range(1, 5)])
    text = render_table(
        ["scheme", "mp1 (fastest, worst path)", "mp2", "mp3", "mp4 (slowest, best path)"],
        rows,
        title="Share of contested liquidity captured per racer",
        float_format="{:.3f}",
    )
    return shares, text


def test_economics_speed_race(benchmark, report):
    shares, text = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report("economics_speed_race", text)

    direct, dbo = shares["direct"], shares["dbo"]
    # Under DBO, true speed wins: mp1 captures essentially everything.
    assert dbo["mp1"] > 0.95
    # Under Direct, the network re-allocates mp1's edge to better paths.
    assert direct["mp1"] < 0.5
    assert direct["mp4"] > dbo["mp4"]
