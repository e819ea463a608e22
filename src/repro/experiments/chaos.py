"""The chaos scenario family: fault plans, twin runs, and audit reports.

A chaos experiment runs one scheme twice from the same seed:

* a **clean twin** — no faults, auditor attached (its report must be
  empty: the machinery is sound under the scenario's own noise);
* a **faulted run** — the same workload with a fault plan armed, the
  auditor watching, and the injector logging what fired when.

Both runs get *fresh* network specs from a factory (latency models carry
mutable state — spike processes, degradation wrappers — so twins must
never share spec objects).  The pair reduces to a
:class:`~repro.metrics.degradation.DegradationReport`: what the failure
mode cost in fairness, latency, and completion.

Named plans are scaled to the run: trigger times are fractions of the
duration, so ``--duration`` changes don't silently push faults past the
end of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.baselines.base import NetworkSpec
from repro.experiments.runner import build_deployment
from repro.faults.auditor import AuditReport, InvariantAuditor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule, FaultSpec
from repro.metrics.degradation import DegradationReport, fairness_degradation
from repro.metrics.records import RunResult
from repro.metrics.serialization import trade_ordering_digest

__all__ = [
    "CHAOS_PLANS",
    "ChaosRunReport",
    "audit_all_schemes",
    "chaos_kwargs",
    "make_plan",
    "run_chaos",
]


# ----------------------------------------------------------------------
# Named plan factories: (duration, n_participants) -> FaultSchedule
# ----------------------------------------------------------------------
def _plan_link_flaky(duration: float, n: int) -> FaultSchedule:
    """Forward-path burst loss + a latency degradation.

    No trades are dropped (market data has no retransmission on the
    burst path; trades ride the untouched reverse legs), so the ordering
    invariants must hold exactly: this is the CI smoke plan.
    """
    return FaultSchedule.of(
        FaultSpec(
            kind="link_burst_loss", at=0.2 * duration, duration=0.2 * duration,
            target="mp0", magnitude=0.3, direction="forward", seed=1,
        ),
        FaultSpec(
            kind="latency_degradation", at=0.45 * duration, duration=0.3 * duration,
            target="mp" + str(min(1, n - 1)), magnitude=150.0, factor=1.5,
            direction="both",
        ),
        name="link-flaky",
    )


def _plan_latency_spike(duration: float, n: int) -> FaultSchedule:
    """A long two-participant slow zone (overloaded rack)."""
    second = "mp" + str(min(1, n - 1))
    return FaultSchedule.of(
        FaultSpec(
            kind="latency_degradation", at=0.25 * duration, duration=0.5 * duration,
            target="mp0", magnitude=400.0, direction="both",
        ),
        FaultSpec(
            kind="latency_degradation", at=0.35 * duration, duration=0.3 * duration,
            target=second, factor=3.0, direction="forward",
        ),
        name="latency-spike",
    )


def _plan_partition(duration: float, n: int) -> FaultSchedule:
    """One participant's forward leg blackholes mid-run."""
    return FaultSchedule.of(
        FaultSpec(
            kind="partition", at=0.3 * duration, duration=0.15 * duration,
            target="mp0", direction="forward",
        ),
        name="partition",
    )


def _plan_rb_outage(duration: float, n: int) -> FaultSchedule:
    """A release buffer crashes and restarts (§4.2.1 RB/MP failure)."""
    return FaultSchedule.of(
        FaultSpec(
            kind="rb_crash", at=0.3 * duration, duration=0.25 * duration,
            target="mp" + str(min(1, n - 1)),
        ),
        name="rb-outage",
    )


def _plan_ob_failover(duration: float, n: int) -> FaultSchedule:
    """The OB crashes and a standby takes over mid-run."""
    return FaultSchedule.of(
        FaultSpec(kind="ob_failover", at=0.4 * duration),
        name="ob-failover",
    )


def _plan_shard_loss(duration: float, n: int) -> FaultSchedule:
    """One OB shard fail-stops; the master reroutes (needs >= 2 shards)."""
    return FaultSchedule.of(
        FaultSpec(kind="shard_failure", at=0.4 * duration, target="shard-1"),
        name="shard-loss",
    )


def _plan_ob_crash(duration: float, n: int) -> FaultSchedule:
    """The flat OB fail-stops.

    Distinct from ``ob-failover`` so supervised runs have a canonical
    crash plan: in scripted mode the standby is promoted at the fault
    instant; in detected mode (``supervise=True``) only the crash fires
    and the failure detector must notice the silence, confirm, and
    promote — converging on the same trade digest.
    """
    return FaultSchedule.of(
        FaultSpec(kind="ob_failover", at=0.35 * duration),
        name="ob-crash",
    )


def _plan_shard_crash(duration: float, n: int) -> FaultSchedule:
    """One OB shard fail-stops; recovery reroutes its orphans."""
    return FaultSchedule.of(
        FaultSpec(kind="shard_failure", at=0.35 * duration, target="shard-0"),
        name="shard-crash",
    )


def _plan_aggregator_crash(duration: float, n: int) -> FaultSchedule:
    """An interior aggregation-tree node fail-stops (tree mode).

    ``run_chaos`` defaults the deployment to ``depth=2, fanout=2`` with
    four shards, so ``agg1-0`` is the first level-1 interior node.
    """
    return FaultSchedule.of(
        FaultSpec(kind="aggregator_failure", at=0.4 * duration, target="agg1-0"),
        name="aggregator-crash",
    )


def _plan_ces_hiccup(duration: float, n: int) -> FaultSchedule:
    """The market-data feed process hangs, then heals.

    Generation stops cold — no points, no opportunities — and resumes a
    cadence gap after the scripted heal.  The supervisor (if armed) can
    only flag the feed: there is no standby to promote.
    """
    return FaultSchedule.of(
        FaultSpec(kind="ces_hiccup", at=0.3 * duration, duration=0.15 * duration),
        name="ces-hiccup",
    )


def _plan_trace_storm(duration: float, n: int) -> FaultSchedule:
    """Latency windows derived from the §6.4 RTT trace (satellite of §6).

    The Figure-11 trace is resampled to the run length and thresholded
    at its 90th percentile; every excursion above the threshold becomes
    a ``latency_degradation`` window on mp0's legs whose extra one-way
    latency is half the excursion peak.  Chaos plans thus replay *real*
    measured congestion instead of hand-picked windows.
    """
    from repro.net.trace import generate_figure11_trace

    trace = generate_figure11_trace(
        duration=0.9 * duration,
        sample_interval=max(duration / 400.0, 1.0),
        seed=2023,
    )
    return FaultSchedule.from_trace(
        trace,
        threshold=trace.percentile(90.0),
        target="mp0",
        direction="both",
        name="trace-storm",
    )


def _plan_gateway_stall(duration: float, n: int) -> FaultSchedule:
    """The egress gateway hangs, then resumes (fail-closed hold)."""
    return FaultSchedule.of(
        FaultSpec(
            kind="gateway_stall", at=0.3 * duration, duration=0.3 * duration,
        ),
        name="gateway-stall",
    )


def _plan_ack_loss(duration: float, n: int) -> FaultSchedule:
    """Every OB→RB ack channel burst-drops mid-run (DBO only).

    Unacked trades hit their retransmit timeout and are resent with
    their original stamps; the OB's key-dedup ignores the copies, so the
    matching-engine ordering must stay byte-identical to a clean run
    while ``acks_received`` falls below the release count.
    """
    return FaultSchedule.of(
        *[
            FaultSpec(
                kind="link_burst_loss", at=0.2 * duration, duration=0.35 * duration,
                channel=f"ack-mp{index}", magnitude=0.9, seed=11 + index,
            )
            for index in range(n)
        ],
        name="ack-loss",
    )


def _plan_dup_delivery(duration: float, n: int) -> FaultSchedule:
    """Reverse and forward channels turn at-least-once for a window.

    Receivers must absorb the duplicates — the OB (or the channel's own
    dedup hook) by message identity — so the trade ordering is unchanged
    while the per-channel duplicated/deduped odometers move.
    """
    second = "mp" + str(min(1, n - 1))
    return FaultSchedule.of(
        FaultSpec(
            kind="duplicate_delivery", at=0.2 * duration, duration=0.4 * duration,
            channel="rev-mp0", magnitude=0.6, seed=5,
        ),
        FaultSpec(
            kind="duplicate_delivery", at=0.3 * duration, duration=0.35 * duration,
            channel=f"fwd-{second}", magnitude=0.4, seed=6,
        ),
        name="dup-delivery",
    )


def _plan_drift_storm(duration: float, n: int) -> FaultSchedule:
    """Clock-drift storm over one aggregation subtree (DBO only).

    Even-index participants are exactly shard-0's round-robin subtree in
    a two-shard (or fanout-2 tree) deployment, so the storm skews one
    aggregator subtree's heartbeat cadence while the other subtree stays
    on tempo.  Overlapping windows mix a fast clock, a crawling clock
    (cadence ~5x slow — an auditor armed with
    ``expected_heartbeat_period`` flags the ``heartbeat_gap``), and a
    second fast burst.  DBO consumes clock *intervals*, not absolutes,
    and the skew re-anchor keeps every reading continuous, so the
    ε-fairness and ordering invariants must survive unchanged — the
    paper's drift-robustness claim under storm conditions.
    """
    targets = [f"mp{index}" for index in range(0, n, 2)][:3]
    magnitudes = (0.05, -0.8, 0.12)
    return FaultSchedule.of(
        *[
            FaultSpec(
                kind="clock_drift",
                at=(0.15 + 0.1 * slot) * duration,
                duration=0.45 * duration,
                target=target,
                magnitude=magnitudes[slot % len(magnitudes)],
            )
            for slot, target in enumerate(targets)
        ],
        name="drift-storm",
    )


CHAOS_PLANS: Dict[str, Callable[[float, int], FaultSchedule]] = {
    "link-flaky": _plan_link_flaky,
    "latency-spike": _plan_latency_spike,
    "partition": _plan_partition,
    "rb-outage": _plan_rb_outage,
    "ob-failover": _plan_ob_failover,
    "ob-crash": _plan_ob_crash,
    "shard-loss": _plan_shard_loss,
    "shard-crash": _plan_shard_crash,
    "aggregator-crash": _plan_aggregator_crash,
    "ces-hiccup": _plan_ces_hiccup,
    "trace-storm": _plan_trace_storm,
    "gateway-stall": _plan_gateway_stall,
    "ack-loss": _plan_ack_loss,
    "dup-delivery": _plan_dup_delivery,
    "drift-storm": _plan_drift_storm,
}


def make_plan(name: str, duration: float, n_participants: int) -> FaultSchedule:
    """Instantiate a named plan scaled to the run."""
    try:
        factory = CHAOS_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos plan {name!r}; choose from {sorted(CHAOS_PLANS)}"
        ) from None
    return factory(duration, n_participants)


# ----------------------------------------------------------------------
# Twin runner
# ----------------------------------------------------------------------
@dataclass
class ChaosRunReport:
    """Everything a chaos experiment produced, clean twin included."""

    scheme: str
    plan: FaultSchedule
    clean: RunResult
    faulted: RunResult
    clean_audit: AuditReport
    faulted_audit: AuditReport
    injector_summary: Dict[str, Any]
    degradation: DegradationReport
    clean_digest: str
    faulted_digest: str

    @property
    def safe(self) -> bool:
        """No safety violation in either run (liveness events allowed)."""
        return self.clean_audit.ok and self.faulted_audit.ok

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "plan": self.plan.to_dict(),
            "safe": self.safe,
            "clean_audit": self.clean_audit.to_dict(),
            "faulted_audit": self.faulted_audit.to_dict(),
            "injector": dict(self.injector_summary),
            "degradation": self.degradation.to_dict(),
            "clean_digest": self.clean_digest,
            "faulted_digest": self.faulted_digest,
        }


def chaos_kwargs(
    scheme: str, plan: FaultSchedule, kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    """``kwargs`` plus the deployment knobs ``plan`` needs on ``scheme``
    (shards, a tree, the egress gateway, retransmission); a knob the
    caller set is kept.

    Only the DBO pipeline, which both ``dbo`` and ``prob`` run, has
    these knobs; other schemes get ``kwargs`` back unchanged, and the
    injector's arm-time validation names what they lack.
    """
    kwargs = dict(kwargs)
    if scheme not in ("dbo", "prob"):
        return kwargs
    kinds = set(plan.kinds)
    if "shard_failure" in kinds:
        kwargs.setdefault("n_ob_shards", 2)
    if "gateway_stall" in kinds:
        kwargs.setdefault("enable_egress_gateway", True)
    if "aggregator_failure" in kinds:
        from repro.core.params import AggregationTopology

        kwargs.setdefault("topology", AggregationTopology(depth=2, fanout=2))
        kwargs.setdefault("n_ob_shards", 4)
    # Supervised recovery re-collects the unacked windows; without a
    # retransmit policy the crash window is lost by design and the
    # detected/scripted digest equivalence cannot hold.
    supervised_crash = bool(kwargs.get("supervise")) and bool(
        kinds & {"ob_failover", "shard_failure", "aggregator_failure"}
    )
    # Ack channels only exist when acks are on; losing them is only
    # interesting if unacked trades actually get resent.
    acks_faulted = any(
        fault.channel is not None and fault.channel.startswith("ack-")
        for fault in plan
    )
    if supervised_crash or acks_faulted:
        from repro.core.release_buffer import RetransmitPolicy

        kwargs.setdefault("retransmit_policy", RetransmitPolicy())
    return kwargs


def run_chaos(
    scheme: str,
    specs_factory: Callable[[], Sequence[NetworkSpec]],
    duration: float,
    plan: FaultSchedule,
    seed: int = 0,
    drain: Optional[float] = None,
    stall_timeout: Optional[float] = 50_000.0,
    **kwargs,
) -> ChaosRunReport:
    """Run ``scheme`` clean and faulted from the same seed; audit both.

    ``specs_factory`` is called once per run — twins must not share
    mutable latency-model state.  Remaining kwargs reach the deployment
    constructor (scheme params, ``n_ob_shards``, ...), completed by
    :func:`chaos_kwargs`; the injector's arm-time validation reports any
    knob still missing.
    """
    kwargs = chaos_kwargs(scheme, plan, kwargs)
    recovery = "detected" if kwargs.get("supervise") else "scripted"

    clean_deployment = build_deployment(scheme, specs_factory(), seed=seed, **kwargs)
    clean_auditor = InvariantAuditor(stall_timeout=stall_timeout)
    clean_auditor.attach(clean_deployment)
    clean = clean_deployment.run(duration=duration, drain=drain)

    faulted_deployment = build_deployment(scheme, specs_factory(), seed=seed, **kwargs)
    injector = FaultInjector(plan, recovery=recovery)
    injector.arm(faulted_deployment)
    faulted_auditor = InvariantAuditor(stall_timeout=stall_timeout)
    faulted_auditor.attach(faulted_deployment)
    faulted = faulted_deployment.run(duration=duration, drain=drain)

    return ChaosRunReport(
        scheme=scheme,
        plan=plan,
        clean=clean,
        faulted=faulted,
        clean_audit=clean_auditor.report(),
        faulted_audit=faulted_auditor.report(),
        injector_summary=injector.summary(),
        degradation=fairness_degradation(clean, faulted, plan=plan.name),
        clean_digest=trade_ordering_digest(clean),
        faulted_digest=trade_ordering_digest(faulted),
    )


def audit_all_schemes(
    specs_factory: Callable[[], Sequence[NetworkSpec]],
    duration: float,
    seed: int = 0,
    schemes: Optional[List[str]] = None,
    scheme_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
    **kwargs,
) -> Dict[str, AuditReport]:
    """Fault-free audit sweep: every registered scheme must come back clean.

    Used by tests and the CI smoke step to pin the invariant "no scheme
    violates safety without injected faults".  ``scheme_kwargs`` carries
    per-scheme constructor overrides (e.g. an FBA ``batch_interval``
    short enough for the run).
    """
    from repro.experiments.registry import available_schemes

    reports: Dict[str, AuditReport] = {}
    for scheme in schemes if schemes is not None else available_schemes():
        extra = dict(kwargs)
        extra.update((scheme_kwargs or {}).get(scheme, {}))
        deployment = build_deployment(scheme, specs_factory(), seed=seed, **extra)
        auditor = InvariantAuditor()
        auditor.attach(deployment)
        deployment.run(duration=duration)
        reports[scheme] = auditor.report()
    return reports
