"""A settled drain against the full drain it replaces.

``BaseDeployment.run`` stops at the first drain checkpoint where the run
has settled: every decided trade is forwarded and only timers and idle
deliveries (DBO's heartbeats and watermark summaries) are still pending.
The contract is that the rest of the drain could change nothing a run
reports.  Each cell here runs twice: once as is, and once with a no-op
one-shot scheduled at ``duration + drain`` before ``run()``, which keeps
the run unsettled until the cap — the full drain.  Trades, digests,
send/arrival/delivery maps, degradation, every audit violation and
liveness event, and every counter and channel odometer must coincide;
only the idle-plane odometers may differ.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

import pytest

from repro.baselines.base import DRAIN_CHECKPOINTS, BaseDeployment, default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.release_buffer import RetransmitPolicy
from repro.exchange.feed import FeedConfig
from repro.experiments.chaos import CHAOS_PLANS, make_plan, run_chaos
from repro.experiments.runner import build_deployment
from repro.faults.auditor import InvariantAuditor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.metrics.serialization import trade_ordering_digest
from repro.net.latency import CompositeLatency, ConstantLatency, StepLatency, UniformJitterLatency
from repro.participants.strategies import MarketMaker, SpeedRacer

DRAIN = 20_000.0
DURATION = 4_000.0
SCHEMES = ["direct", "cloudex", "fba", "dbo", "libra", "prob"]
SCHEME_KWARGS: Dict[str, Dict[str, Any]] = {"fba": {"batch_interval": 1_000.0}}
MODES = {
    "plain": {},
    "retransmit": {"retransmit_policy": RetransmitPolicy()},
    "supervise": {"supervise": True},
}

# The idle plane: what a shorter drain may change, and nothing else.
IDLE_COUNTERS = {
    "heartbeats_sent", "ob_heartbeats_processed", "shard_heartbeats_processed",
    "master_summaries_processed", "agg_summaries_published", "auctions_held",
    "windows_closed", "settled_at",
}


def _idle_channel(name: str) -> bool:
    """Heartbeat lanes and the watermark-summary edges above the shards."""
    return name.startswith(("rev-", "agg-"))


def _observables(result, audit) -> Dict[str, Any]:
    return {
        "counters": {k: v for k, v in result.counters.items() if k not in IDLE_COUNTERS},
        "channels": {
            name: {k: v for k, v in odometers.items() if k not in ("sent", "delivered")}
            if _idle_channel(name) else odometers
            for name, odometers in result.channels.items()
        },
        "trades": result.trades,
        "digest": trade_ordering_digest(result),
        "send": result.network_send_times,
        "arrivals": result.raw_arrivals,
        "deliveries": result.delivery_times,
        # Safety violations and liveness events, in order.
        "audit_events": [v.to_dict() for v in audit.violations],
        "recovery": audit.recovery,
    }


def _clean(scheme, engine="heap", specs=None, **kwargs):
    deployment = build_deployment(
        scheme,
        specs or default_network_specs(4, seed=5),
        seed=5,
        engine=engine,
        **{**SCHEME_KWARGS.get(scheme, {}), **kwargs},
    )
    auditor = InvariantAuditor()
    auditor.attach(deployment)
    result = deployment.run(duration=DURATION, drain=DRAIN)
    return _observables(result, auditor.report()), result.counters["settled_at"]


def _chaos(scheme, plan_name, engine="heap", **kwargs):
    report = run_chaos(
        scheme,
        lambda: default_network_specs(4, seed=7),
        DURATION,
        make_plan(plan_name, DURATION, 4),
        seed=7,
        drain=DRAIN,
        engine=engine,
        **kwargs,
    )
    observed = {
        "clean": _observables(report.clean, report.clean_audit),
        "faulted": _observables(report.faulted, report.faulted_audit),
        "degradation": report.degradation.to_dict(),
        "injector": report.injector_summary,
    }
    return observed, (report.clean.counters["settled_at"], report.faulted.counters["settled_at"])


def _settled_then_full(monkeypatch, runner, *args, **kwargs):
    """``runner`` as is, then with every ``run()`` held to the cap by a
    no-op one-shot at ``duration + drain`` (the full drain)."""
    settled, settled_at = runner(*args, **kwargs)
    original = BaseDeployment.run

    def run(self, duration, drain=None):
        self.engine.schedule_at(duration + drain, lambda: None)
        return original(self, duration, drain)

    with monkeypatch.context() as patch:
        patch.setattr(BaseDeployment, "run", run)
        full, full_at = runner(*args, **kwargs)
    assert full_at in (DURATION + DRAIN, (DURATION + DRAIN,) * 2)
    return settled, full, settled_at


@pytest.mark.parametrize("engine", ["heap", "reference"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_clean_scheme(monkeypatch, scheme, engine):
    settled, full, settled_at = _settled_then_full(monkeypatch, _clean, scheme, engine)
    assert settled == full
    # The cell must actually settle, or it proves nothing.
    assert settled_at < DURATION + DRAIN


# prob runs only the flat ordering buffer: no shard or tree plans.
SHARDED_PLANS = {"shard-loss", "shard-crash", "aggregator-crash"}
CHAOS_CELLS = [
    (scheme, plan_name)
    for scheme in ("dbo", "prob")
    for plan_name in sorted(CHAOS_PLANS)
    if scheme == "dbo" or plan_name not in SHARDED_PLANS
]


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("scheme, plan_name", CHAOS_CELLS)
def test_chaos_plan(monkeypatch, scheme, plan_name, mode):
    settled, full, _ = _settled_then_full(
        monkeypatch, _chaos, scheme, plan_name, **MODES[mode]
    )
    assert settled == full


@pytest.mark.parametrize("plan_name", ["ob-crash", "shard-crash", "rb-outage", "dup-delivery"])
def test_chaos_plan_on_reference_engine(monkeypatch, plan_name):
    settled, full, _ = _settled_then_full(
        monkeypatch, _chaos, "dbo", plan_name, engine="reference",
        retransmit_policy=RetransmitPolicy(),
    )
    assert settled == full


@pytest.mark.parametrize("engine", ["heap", "reference"])
@pytest.mark.parametrize(
    "plane",
    [
        {"n_ob_shards": 2},
        {"topology": AggregationTopology(fanout=2, depth=2), "n_ob_shards": 4},
    ],
    ids=["shards", "tree"],
)
def test_shard_planes(monkeypatch, plane, engine):
    settled, full, settled_at = _settled_then_full(
        monkeypatch, _clean, "dbo", engine, default_network_specs(8, seed=5), **plane
    )
    assert settled == full
    assert settled_at < DURATION + DRAIN


@pytest.mark.parametrize("scheme", ["direct", "prob", "dbo"])
def test_data_in_flight_past_a_checkpoint(monkeypatch, scheme):
    # mp0's market data takes 1.5 ms and points come every 400 µs, so at
    # an early checkpoint every decided trade can be forwarded while mp0's
    # last points are still on the wire: those deliveries must keep the
    # run going, or mp0's last trades are never decided.
    specs = default_network_specs(4, seed=5)
    specs[0] = dataclasses.replace(specs[0], forward=ConstantLatency(1_500.0))
    settled, full, settled_at = _settled_then_full(
        monkeypatch, _clean, scheme, "heap", specs, feed_config=FeedConfig(interval=400.0)
    )
    assert settled == full
    assert DURATION < settled_at < DURATION + DRAIN


@pytest.mark.parametrize(
    "scheme, kwargs",
    [
        # A 60 µs batch span over a 40 µs feed: the last window is closed
        # by the batcher's periodic window timer, after the feed stops.
        ("dbo", {"params": DBOParams().with_horizon(45.0, batch_span=60.0)}),
        # Points wait at the CES for the first auction, 2 ms after the
        # feed stops; until then no participant has anything to trade on.
        ("fba", {"batch_interval": 6_000.0}),
    ],
    ids=["dbo-batch-window", "fba-auction"],
)
def test_points_held_for_a_timer(monkeypatch, scheme, kwargs):
    settled, full, settled_at = _settled_then_full(monkeypatch, _clean, scheme, "heap", **kwargs)
    assert settled == full
    assert DURATION < settled_at < DURATION + DRAIN


def test_straggler_still_ejected_at_the_end(monkeypatch):
    # mp0's data path gains 4 ms just before the feed stops: it is ejected
    # as a straggler and stays out; the straggler counters must not move.
    spike = StepLatency([(0.0, 0.0), (DURATION - 1_000.0, 4_000.0)])
    specs = default_network_specs(4, seed=5)
    specs[0] = dataclasses.replace(specs[0], forward=CompositeLatency([specs[0].forward, spike]))
    settled, full, settled_at = _settled_then_full(
        monkeypatch, _clean, "dbo", "heap", specs, params=DBOParams(straggler_threshold=300.0)
    )
    assert settled == full
    assert settled["counters"]["ob_stragglers_now"] == 1
    assert DURATION < settled_at < DURATION + DRAIN


class _OpportunityMaker(MarketMaker):
    """Quotes on opportunity points only."""

    def on_point(self, point):
        return super().on_point(point) if point.is_opportunity else []


def _kitchen_sink(engine):
    deployment = build_deployment(
        "dbo", default_network_specs(6, seed=5), seed=11, engine=engine,
        params=DBOParams(straggler_threshold=800.0),
        feed_config=FeedConfig(interval=40.0, price_volatility=0.0),
        strategy_factory=lambda i: _OpportunityMaker(quantity=3) if i == 0 else SpeedRacer(seed=i),
        execute_trades=True, n_ob_shards=3,
        sync_target_c1=25.0, sync_error=1.0,
        enable_egress_gateway=True,
    )
    deployment.add_external_source(
        "news", UniformJitterLatency(1500.0, 800.0, seed=99), mean_interval=1_500.0, seed=9
    )
    auditor = InvariantAuditor()
    auditor.attach(deployment)
    result = deployment.run(duration=DURATION, drain=DRAIN)
    return _observables(result, auditor.report()), result.counters["settled_at"]


@pytest.mark.parametrize("engine", ["heap", "reference"])
def test_kitchen_sink(monkeypatch, engine):
    # A market maker on a live book, news, eager shard
    # summaries, sync-assisted delivery and the egress gateway in one run.
    settled, full, settled_at = _settled_then_full(monkeypatch, _kitchen_sink, engine)
    assert settled == full
    assert DURATION < settled_at < DURATION + DRAIN


@pytest.mark.parametrize("scheme", ["dbo", "direct"])
def test_appendix_d_loss_keeps_the_full_drain(monkeypatch, scheme):
    specs = [
        dataclasses.replace(spec, loss_probability=0.05, recovery_delay=300.0)
        if index % 2 == 0 else spec
        for index, spec in enumerate(default_network_specs(4, seed=5))
    ]
    settled, full, settled_at = _settled_then_full(monkeypatch, _clean, scheme, "heap", specs)
    assert settled == full
    assert settled_at == DURATION + DRAIN


def test_permanent_fault_keeps_the_full_drain():
    deployment = build_deployment("dbo", default_network_specs(4, seed=5), seed=5)
    FaultInjector(
        FaultSchedule.of(FaultSpec(kind="latency_degradation", at=1_000.0, target="mp0", magnitude=50.0))
    ).arm(deployment)
    result = deployment.run(duration=DURATION, drain=DRAIN)
    assert result.counters["settled_at"] == DURATION + DRAIN


def test_settles_on_a_checkpoint():
    deployment = build_deployment("dbo", default_network_specs(4, seed=5), seed=5)
    result = deployment.run(duration=DURATION, drain=DRAIN)
    step = DRAIN / DRAIN_CHECKPOINTS
    settled_at = result.counters["settled_at"]
    assert settled_at == deployment.engine.now
    assert DURATION <= settled_at < DURATION + DRAIN
    assert (settled_at - DURATION) / step == int((settled_at - DURATION) / step)
