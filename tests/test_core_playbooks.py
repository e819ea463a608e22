"""The crash/recover table: one row per endpoint kind, shared guards.

Every row (``ob``, ``shard:{id}``, ``agg:{id}``, ``gateway``) goes
through the same guards: an unknown target is a ``KeyError``, a double
crash and a recovery of a live endpoint are ``RuntimeError``s, and a
recovery that cannot run answers ``False`` so the supervisor records it
as unrecoverable instead of the simulation raising.
"""

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import AggregationTopology, DBOParams
from repro.core.release_buffer import RetransmitPolicy
from repro.core.system import DBODeployment
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.net.latency import ConstantLatency


def quiet_specs(n):
    return [
        NetworkSpec(forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i))
        for i in range(n)
    ]


ROWS = {
    "ob": (4, {}, "ob:standby"),
    "shard:shard-1": (4, {"n_ob_shards": 2}, "shard:shard-99"),
    "agg:agg1-0": (8, {"topology": AggregationTopology(depth=2, fanout=2)}, "agg:agg9-9"),
    "gateway": (4, {"enable_egress_gateway": True}, "gateway:spare"),
}


@pytest.mark.parametrize("endpoint", sorted(ROWS))
def test_every_row_shares_the_guards(endpoint):
    n, kwargs, unknown = ROWS[endpoint]
    deployment = DBODeployment(
        quiet_specs(n), params=DBOParams(delta=20.0), seed=4,
        retransmit_policy=RetransmitPolicy(), **kwargs,
    )
    deployment.run(duration=2_000.0)
    playbooks = deployment.playbooks
    now = deployment.engine.now
    assert endpoint.partition(":")[0] in playbooks.kinds

    with pytest.raises(KeyError):
        playbooks.crash(unknown)
    with pytest.raises(KeyError):
        playbooks.recover(unknown, now)
    with pytest.raises(RuntimeError, match="not down"):
        playbooks.recover(endpoint, now)

    assert playbooks.crash(endpoint) >= 0
    assert endpoint in playbooks.down
    with pytest.raises(RuntimeError, match="already down"):
        playbooks.crash(endpoint)

    assert playbooks.recover(endpoint, now) is True
    assert endpoint not in playbooks.down
    assert sum(playbooks.recovered.values()) == 1
    with pytest.raises(RuntimeError, match="not down"):
        playbooks.recover(endpoint, now)


def test_rows_outside_the_deployment_are_refused():
    deployment = DBODeployment(quiet_specs(4), params=DBOParams(delta=20.0), seed=4)
    assert deployment.playbooks.kinds == frozenset({"ob"})
    deployment.run(duration=1_000.0)
    for endpoint in ("shard:shard-0", "agg:agg1-0", "gateway"):
        with pytest.raises(RuntimeError):
            deployment.playbooks.crash(endpoint)
    # Detector endpoints without a playbook have nothing to recover.
    assert deployment.playbooks.recover("rb:mp0", 0.0) is False
    assert deployment.playbooks.recover("feed", 0.0) is False


def test_retired_endpoints_stay_down_for_good():
    deployment = DBODeployment(
        quiet_specs(4), params=DBOParams(delta=20.0), seed=4, n_ob_shards=2
    )
    deployment.run(duration=1_000.0)
    playbooks = deployment.playbooks
    playbooks.crash("shard:shard-1")
    assert playbooks.recover("shard:shard-1", deployment.engine.now)
    assert playbooks.retired == {"shard:shard-1"}
    with pytest.raises(RuntimeError, match="already down"):
        playbooks.crash("shard:shard-1")
    # The last shard has nobody to hand its participants to.
    playbooks.crash("shard:shard-0")
    assert playbooks.recover("shard:shard-0", deployment.engine.now) is False
    assert "shard:shard-0" in playbooks.down
    assert "shard:shard-0" not in playbooks.retired


def _supervised(plan, n=4, **kwargs):
    deployment = DBODeployment(
        default_network_specs(n, seed=7), seed=7, supervise=True,
        retransmit_policy=RetransmitPolicy(), **kwargs,
    )
    FaultInjector(plan, recovery="detected").arm(deployment)
    deployment.run(duration=1_000.0)
    return deployment, deployment.supervisor.escalation_state()


def test_impossible_recovery_is_unrecoverable_not_an_exception():
    plan = FaultSchedule.of(
        FaultSpec(kind="shard_failure", at=300.0, target="shard-0"),
        FaultSpec(kind="shard_failure", at=500.0, target="shard-1"),
    )
    deployment, states = _supervised(plan, n=6, n_ob_shards=2)
    assert states["shard:shard-0"]["state"] == "recovered"
    assert states["shard:shard-1"]["state"] == "unrecoverable"
    assert deployment.playbooks.down == {"shard:shard-1"}
    assert deployment.playbooks.retired == {"shard:shard-0"}


def test_confirmed_silence_of_a_live_component_is_unrecoverable():
    # Every RB dies, so the (live) OB's odometer freezes and the
    # supervisor confirms it dead; the table has nothing to recover.
    plan = FaultSchedule.of(
        *[FaultSpec(kind="rb_crash", at=300.0, target=f"mp{i}") for i in range(3)]
    )
    deployment, states = _supervised(plan, n=3)
    assert states["ob"]["state"] == "unrecoverable"
    assert deployment.playbooks.down == set()


PLANES = {
    "flat": (4, {}, ["ob"]),
    "eager": (4, {"n_ob_shards": 2}, ["shard:shard-0", "shard:shard-1"]),
    "tree": (
        8,
        {"topology": AggregationTopology(depth=2, fanout=2)},
        ["agg:agg1-0", "agg:agg1-1", "shard:shard-0", "shard:shard-1",
         "shard:shard-2", "shard:shard-3"],
    ),
    "gateway": (4, {"enable_egress_gateway": True}, ["gateway", "ob"]),
}


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_one_endpoint_map_per_shape(plane):
    n, kwargs, expected = PLANES[plane]
    deployment = DBODeployment(
        quiet_specs(n), params=DBOParams(delta=20.0), seed=4, supervise=True, **kwargs
    )
    deployment.run(duration=1_000.0)
    assert sorted(deployment.endpoints) == expected
    for endpoint, component in deployment.endpoints.items():
        assert component.endpoint == endpoint
        assert component.odometer() > 0
    # Every participant reports to exactly one live buffer of the plane.
    assert sorted(deployment.ob_routing) == sorted(deployment.mp_ids)
    assert {buffer.endpoint for buffer in deployment.ob_routing.values()} <= set(expected)
    # The detector watches the table plus the RBs and the feed.
    assert deployment.detector.endpoints == sorted(
        [*expected, *(f"rb:{mp_id}" for mp_id in deployment.mp_ids), "feed"]
    )


def test_a_disabled_topology_is_the_flat_plane():
    deployment = DBODeployment(
        quiet_specs(4), seed=4, topology=AggregationTopology(depth=0)
    )
    assert deployment.topology is None
    assert deployment.playbooks.kinds == frozenset({"ob"})
    with pytest.raises(ValueError, match="at least 1"):
        DBODeployment(quiet_specs(4), n_ob_shards=0)


def test_standby_promotion_rewrites_both_maps():
    deployment = DBODeployment(quiet_specs(4), params=DBOParams(delta=20.0), seed=4)
    deployment.run(duration=1_000.0)
    old = deployment.ordering_buffer
    deployment.playbooks.crash("ob")
    deployment.playbooks.recover("ob", deployment.engine.now)
    standby = deployment.ordering_buffer
    assert standby is not old and deployment.endpoints["ob"] is standby
    assert set(deployment.ob_routing.values()) == {standby}


def test_unknown_shard_is_a_key_error():
    deployment = DBODeployment(quiet_specs(4), seed=4, n_ob_shards=2)
    deployment.run(duration=1_000.0)
    with pytest.raises(KeyError):
        deployment.playbooks.crash("shard:nope")
