"""What the dedup and release logs promise end to end.

* Appendix D loss under at-least-once duplication: a recovered packet
  passes its channel's dedup log like any other copy, so a point lost on
  the wire and duplicated reaches its participant once.
* Resource bounds: the OB's release log and every channel's dedup log
  keep their overflow flat as the horizon grows — clean, and with trades
  dropped on the reverse path and resent under ``RetransmitPolicy``.
"""

import collections
import dataclasses

import pytest

from repro.baselines.base import default_network_specs
from repro.core.release_buffer import RetransmitPolicy
from repro.experiments.runner import build_deployment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec


def _lossy_run(scheme, duplicate):
    specs = [
        dataclasses.replace(spec, loss_probability=0.3, recovery_delay=300.0)
        for spec in default_network_specs(4, seed=5)
    ]
    deployment = build_deployment(scheme, specs, seed=5)
    if duplicate:
        FaultInjector(
            FaultSchedule.of(
                FaultSpec(kind="duplicate_delivery", at=0.0, duration=1e9,
                          channel="fwd-*", magnitude=1.0, seed=3)
            )
        ).arm(deployment)
    return deployment.run(duration=4000.0)


@pytest.mark.parametrize("scheme", ["dbo", "direct"])
def test_a_lost_duplicated_point_is_traded_once(scheme):
    lossy = _lossy_run(scheme, duplicate=False)
    both = _lossy_run(scheme, duplicate=True)
    assert len(both.trades) == len(lossy.trades)
    per_point = collections.Counter((t.mp_id, t.trigger_point) for t in both.trades)
    assert max(per_point.values()) == 1
    forward = [name for name in both.channels if name.startswith("fwd-")]
    assert sum(both.channels[name]["lost"] for name in forward) > 0
    assert sum(both.channels[name]["deduped"] for name in forward) > 0


# Trades (and heartbeats) of mp0 vanish in a reverse-path burst early in
# the run; the RB resends each one until its release is acked.
REVERSE_BURST = FaultSchedule.of(
    FaultSpec(kind="link_burst_loss", at=500.0, duration=1000.0, target="mp0",
              magnitude=0.5, direction="reverse", seed=2)
)


def _overflows(horizon, plan):
    deployment = build_deployment(
        "dbo", default_network_specs(8, seed=3), seed=3, retransmit_policy=RetransmitPolicy()
    )
    if plan is not None:
        FaultInjector(plan).arm(deployment)
    result = deployment.run(duration=horizon)
    logs = {"ob": deployment.ordering_buffer._released}
    logs.update((channel.name, channel._seen) for channel in deployment.transport if channel._seen is not None)
    assert len(logs["ob"]) == len(result.trades)
    return {name: len(log._overflow or ()) for name, log in logs.items()}, result


@pytest.mark.parametrize("plan", [None, REVERSE_BURST], ids=["clean", "reverse-burst"])
def test_log_overflow_does_not_grow_with_the_horizon(plan):
    short, short_result = _overflows(3000.0, plan)
    long, long_result = _overflows(12_000.0, plan)
    assert len(long_result.trades) >= 3 * len(short_result.trades)
    if plan is not None:
        assert long_result.counters["trades_retransmitted"] > 0
    assert set(short) == set(long)
    for name in long:
        assert long[name] <= short[name], name


def _fba_forward_logs(horizon):
    deployment = build_deployment(
        "fba", default_network_specs(4, seed=3), seed=3, batch_interval=500.0
    )
    deployment.run(duration=horizon)
    return {
        channel.name: channel._seen
        for channel in deployment.transport
        if channel.name.startswith("fwd-")
    }


@pytest.mark.parametrize("horizon", [4000.0, 16_000.0])
def test_batched_publications_keep_the_forward_log_dense(horizon):
    # One auction publishes many points as one message; its dedup key is
    # the publication's sequence number, so the keys stay one run.
    logs = _fba_forward_logs(horizon)
    assert len(logs) == 4
    for name, log in logs.items():
        assert len(log) == horizon // 500.0, name
        assert not log._overflow, name
