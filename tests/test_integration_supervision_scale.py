"""Supervised recovery at scale: N=1024 under a fanout-8 aggregation tree.

One deployment, four aggregator crashes in two waves:

* wave 1 — three level-1 interior nodes (``agg1-0``, ``agg1-2``,
  ``agg1-5``) fail-stop at the same instant, so the failure detector
  carries **three concurrent suspects** through confirm and recovery;
* wave 2 — ``agg1-1`` fails *after* it adopted ``agg1-0``'s subtree
  (the ``agg`` playbook's recovery reassigns a dead node's coverage into its
  first surviving sibling), so the same shards are re-parented twice —
  a **cascaded adoption**.

The pins: the supervisor recovers all four without manual help, zero
trades are lost (full completion despite the double-moved subtree), the
safety audit stays clean, and the detection-to-recovery latency
distribution is tight and fully populated.

The run is expensive (1024 RBs heartbeating every τ), so everything is
asserted off one session-scoped faulted run — no clean twin here; the
fault-free invisibility half is pinned at small N by
``test_integration_supervision.py``.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import default_network_specs
from repro.core.params import AggregationTopology
from repro.core.release_buffer import RetransmitPolicy
from repro.experiments.runner import build_deployment
from repro.faults.auditor import InvariantAuditor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec

N = 1024
FANOUT = 8
DURATION = 1_200.0
DRAIN = 600.0
SEED = 13

WAVE_1 = ("agg1-0", "agg1-2", "agg1-5")
# agg1-1 is agg1-0's deterministic adopter (first surviving sibling in
# the parent's child order), so crashing it afterwards cascades.
WAVE_2 = ("agg1-1",)


@pytest.fixture(scope="module")
def scale_run():
    plan = FaultSchedule.of(
        *[
            FaultSpec(kind="aggregator_failure", at=0.25 * DURATION, target=node)
            for node in WAVE_1
        ],
        FaultSpec(kind="aggregator_failure", at=0.5 * DURATION, target=WAVE_2[0]),
        name="agg-crash-cascade-1024",
    )
    deployment = build_deployment(
        "dbo",
        default_network_specs(N, seed=SEED),
        seed=SEED,
        engine="reference",
        supervise=True,
        topology=AggregationTopology(depth=2, fanout=FANOUT),
        n_ob_shards=FANOUT * FANOUT,
        retransmit_policy=RetransmitPolicy(),
    )
    injector = FaultInjector(plan, recovery="detected")
    injector.arm(deployment)
    auditor = InvariantAuditor(stall_timeout=50_000.0)
    auditor.attach(deployment)
    result = deployment.run(duration=DURATION, drain=DRAIN)
    report = auditor.report()
    supervisor = report.to_dict()["recovery"].get("supervisor", {})
    return deployment, result, report, supervisor


def _agg_escalations(supervisor):
    return {
        name: snap for name, snap in supervisor.items() if name.startswith("agg:")
    }


def test_all_crashed_aggregators_recovered(scale_run):
    _, _, _, supervisor = scale_run
    escalations = _agg_escalations(supervisor)
    assert sorted(escalations) == sorted(
        f"agg:{node}" for node in WAVE_1 + WAVE_2
    )
    assert all(snap["state"] == "recovered" for snap in escalations.values())


def test_at_least_three_concurrent_suspects(scale_run):
    """Wave 1's escalations overlap: ≥3 endpoints suspect at one instant."""
    _, _, _, supervisor = scale_run
    windows = [
        (snap["suspected_at"], snap["recovered_at"])
        for name, snap in _agg_escalations(supervisor).items()
        if name.removeprefix("agg:") in WAVE_1
    ]
    assert len(windows) == 3
    overlap_start = max(start for start, _ in windows)
    overlap_end = min(end for _, end in windows)
    assert overlap_start < overlap_end, "wave-1 suspects did not overlap"


def test_cascaded_adoption_re_parents_twice(scale_run):
    """agg1-1 adopted agg1-0's subtree, then died and was re-adopted."""
    _, _, _, supervisor = scale_run
    wave1 = _agg_escalations(supervisor)[f"agg:{WAVE_1[0]}"]
    wave2 = _agg_escalations(supervisor)[f"agg:{WAVE_2[0]}"]
    # Strict ordering: the adopter's own failure (and recovery) happened
    # only after it had recovered wave 1's subtree.
    assert wave1["recovered_at"] < wave2["suspected_at"]
    assert wave2["state"] == "recovered"


def test_zero_trades_lost(scale_run):
    _, result, report, _ = scale_run
    assert report.ok, report.counts()
    assert result.completion_ratio() == 1.0


def test_detection_to_recovery_latency_distribution(scale_run):
    """Every escalation carries a full timeline; latencies are tight.

    Detection-to-recovery = recovered_at − suspected_at.  The probe
    ladder (2 failed probes, then confirm + recover in one step) bounds
    it well under the run length; the distribution must be fully
    populated (no None anywhere) and positive.
    """
    _, _, _, supervisor = scale_run
    latencies = sorted(
        snap["recovered_at"] - snap["suspected_at"]
        for snap in _agg_escalations(supervisor).values()
    )
    assert len(latencies) == len(WAVE_1) + len(WAVE_2)
    assert all(0.0 < lat < DURATION / 2 for lat in latencies)
    p50 = latencies[len(latencies) // 2]
    assert p50 <= latencies[-1] < 5.0 * latencies[0]


def test_supervisor_counters_match_escalations(scale_run):
    deployment, _, _, supervisor = scale_run
    counters = deployment.supervisor.counters()
    assert counters["supervisor_confirms"] == 4.0
    assert counters["supervisor_recoveries"] == 4.0
    assert counters["supervisor_unrecoverable"] == 0.0
