"""The fault injector: arms a declarative plan against a deployment.

Every fault (and its recovery) is scheduled as an ordinary engine event
at arm time, so a chaos run is exactly as deterministic as a clean run:
same seed + same plan ⇒ identical event interleaving.  Targets resolve
at fire time, because deployments build lazily inside ``run()``: link
faults (latency degradation included) act on the addressed channels,
component faults on the release buffers, the CES or the recovery table.
"""

from __future__ import annotations

import fnmatch
from typing import Any, Dict, List

from repro.faults.plan import FaultSchedule, FaultSpec
from repro.net.transport import Channel

__all__ = ["FaultInjector", "PLAYBOOK_ENDPOINTS"]

# The recovery-table endpoint each component fault crashes ("{}" takes
# the fault's target).  Its recover half runs in scripted mode only — at
# once for an instantaneous crash, at ``ends_at`` for a windowed stall —
# and is the supervisor's in detected mode.
PLAYBOOK_ENDPOINTS = {
    "ob_failover": "ob",
    "shard_failure": "shard:{}",
    "aggregator_failure": "agg:{}",
    "gateway_stall": "gateway",
}
# Why a fault's endpoint kind is missing from a deployment's table.
_NOT_CRASHABLE = {
    "ob": "applies to the flat OB; use shard_failure",
    "shard": "requires n_ob_shards > 1 or an aggregation tree",
    "agg": "requires an aggregation tree (topology depth >= 2 builds interior nodes)",
    "gateway": "requires enable_egress_gateway=True",
}


class FaultInjector:
    """Schedules a :class:`FaultSchedule` onto a deployment's engine.

    Usage::

        injector = FaultInjector(schedule)
        injector.arm(deployment)        # before deployment.run(...)
        result = deployment.run(duration=...)
        injector.log                    # what fired, when

    ``arm`` validates that the deployment can express every fault in the
    plan (e.g. ``rb_crash`` needs the DBO deployment's release buffers,
    ``gateway_stall`` needs the egress gateway enabled) and raises
    early — a plan that silently half-applies would poison comparisons.
    """

    RECOVERY_MODES = ("scripted", "detected")

    def __init__(self, schedule: FaultSchedule, recovery: str = "scripted") -> None:
        if recovery not in self.RECOVERY_MODES:
            raise ValueError(
                f"recovery must be one of {self.RECOVERY_MODES}, got {recovery!r}"
            )
        self.schedule = schedule
        # "scripted": crash faults also run their recovery protocol
        # synchronously (the historical behaviour).  "detected": the
        # injector fires only the crash half; the deployment's supervisor
        # must notice the silence and drive the recovery itself.
        self.recovery = recovery
        self.deployment: Any = None
        self.armed = False
        # Chronological record of every action taken, for reports.
        self.log: List[Dict[str, Any]] = []
        self.faults_fired = 0
        self.faults_recovered = 0
        # Fired faults that no heal will ever undo (see ``holding``).
        self._permanent_fired = 0

    # ------------------------------------------------------------------
    def arm(self, deployment: Any) -> None:
        """Validate the plan against ``deployment`` and schedule it."""
        if self.armed:
            raise RuntimeError("injector already armed")
        if getattr(deployment, "_built", False):
            raise RuntimeError("arm the injector before the deployment builds (run())")
        self.deployment = deployment
        self._validate(deployment)
        engine = deployment.engine
        for fault in self.schedule:
            engine.schedule_at(fault.at, self._fire, priority=1, args=(fault,))
            if fault.ends_at is not None:
                if self.recovery == "detected" and fault.kind in PLAYBOOK_ENDPOINTS:
                    # The supervisor owns the recovery: a scripted heal
                    # would mask the detection path under test.
                    continue
                engine.schedule_at(
                    fault.ends_at, self._recover, priority=1, args=(fault,)
                )
        deployment.fault_injectors.append(self)
        self.armed = True

    @property
    def holding(self) -> bool:
        """Whether a fired fault holds for the rest of the run: a link, RB
        or clock fault without a duration.  A timed fault's pending heal
        is an engine event of its own, and a component crash is undone by
        its playbook (scripted) or the supervisor (detected)."""
        return self._permanent_fired > 0

    def _validate(self, deployment: Any) -> None:
        mp_ids = set(deployment.mp_ids)
        for fault in self.schedule:
            kind = fault.kind
            if fault.channel is not None:
                # Channel names resolve at fire time (deployments build
                # their channels lazily inside run()); here we can only
                # require a message plane to exist at all.
                if getattr(deployment, "transport", None) is None:
                    raise ValueError(
                        f"{kind} addresses channel {fault.channel!r} but the "
                        "deployment has no transport"
                    )
                continue
            if kind in {
                "link_burst_loss",
                "latency_degradation",
                "partition",
                "rb_crash",
                "duplicate_delivery",
                "clock_drift",
            }:
                if fault.target not in mp_ids:
                    raise ValueError(
                        f"{kind} targets unknown participant {fault.target!r}"
                    )
            if kind in {"rb_crash", "clock_drift"} and not hasattr(
                deployment, "_rb_by_id"
            ):
                raise ValueError(f"{kind} requires a DBO deployment")
            if kind == "ces_hiccup" and not hasattr(deployment, "ces"):
                raise ValueError("ces_hiccup requires a deployment with a CES")
            if kind not in PLAYBOOK_ENDPOINTS:
                continue
            playbooks = getattr(deployment, "playbooks", None)
            if playbooks is None:
                raise ValueError(f"{kind} requires a DBO deployment")
            endpoint_kind = PLAYBOOK_ENDPOINTS[kind].partition(":")[0]
            if endpoint_kind not in playbooks.kinds:
                raise ValueError(f"{kind} {_NOT_CRASHABLE[endpoint_kind]}")
            if self.recovery == "detected" and not deployment.supervise:
                raise ValueError(
                    f"detected-mode {kind} needs a supervised deployment "
                    "(supervise=True); nothing else would ever recover it"
                )

    # ------------------------------------------------------------------
    def _channels_for(self, fault: FaultSpec) -> List[Channel]:
        """Resolve the channels a channel-capable fault addresses.

        ``channel`` names one directly; ``target`` + ``direction`` maps
        to the participant's ``fwd-{mp}`` / ``rev-{mp}`` data channels.
        """
        transport = self.deployment.transport
        if fault.channel is not None:
            if "*" in fault.channel or "?" in fault.channel or "[" in fault.channel:
                matched = [
                    transport.channel(name)
                    for name in transport.names()
                    if fnmatch.fnmatchcase(name, fault.channel)
                ]
                if not matched:
                    raise KeyError(
                        f"channel glob {fault.channel!r} matched no channels"
                    )
                return matched
            return [transport.channel(fault.channel)]
        prefixes = (
            ("fwd", "rev") if fault.direction == "both"
            else (("fwd",) if fault.direction == "forward" else ("rev",))
        )
        return [transport.channel(f"{prefix}-{fault.target}") for prefix in prefixes]

    def _record(self, action: str, fault: FaultSpec) -> None:
        entry = {
            "time": self.deployment.engine.now,
            "action": action,
            "kind": fault.kind,
            "target": fault.target,
        }
        if fault.channel is not None:
            entry["channel"] = fault.channel
        self.log.append(entry)

    # ------------------------------------------------------------------
    def _fire(self, fault: FaultSpec) -> None:
        deployment = self.deployment
        kind = fault.kind
        if kind in PLAYBOOK_ENDPOINTS:
            endpoint = PLAYBOOK_ENDPOINTS[kind].format(fault.target)
            deployment.playbooks.crash(endpoint)
            if (
                self.recovery == "scripted"
                and fault.ends_at is None
                and not deployment.playbooks.recover(endpoint, deployment.engine.now)
            ):
                raise RuntimeError(f"no recovery possible for {endpoint!r}")
        elif kind == "link_burst_loss":
            for channel in self._channels_for(fault):
                channel.start_loss_burst(fault.magnitude, seed=fault.seed)
        elif kind == "partition":
            for channel in self._channels_for(fault):
                channel.set_blackhole(True)
        elif kind == "duplicate_delivery":
            for channel in self._channels_for(fault):
                channel.start_duplication(fault.magnitude, seed=fault.seed)
        elif kind == "latency_degradation":
            for channel in self._channels_for(fault):
                channel.degrade(extra=fault.magnitude, factor=fault.factor)
        elif kind == "rb_crash":
            deployment._rb_by_id[fault.target].crash()
        elif kind == "clock_drift":
            deployment._rb_by_id[fault.target].apply_clock_skew(fault.magnitude)
        elif kind == "ces_hiccup":
            deployment.ces.pause()
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise ValueError(f"unhandled fault kind {kind!r}")
        self.faults_fired += 1
        if fault.ends_at is None and kind not in PLAYBOOK_ENDPOINTS:
            self._permanent_fired += 1
        self._record("fire", fault)

    def _recover(self, fault: FaultSpec) -> None:
        deployment = self.deployment
        kind = fault.kind
        if kind in PLAYBOOK_ENDPOINTS:
            deployment.playbooks.recover(
                PLAYBOOK_ENDPOINTS[kind].format(fault.target), deployment.engine.now
            )
        elif kind == "link_burst_loss":
            for channel in self._channels_for(fault):
                channel.stop_loss_burst()
        elif kind == "partition":
            for channel in self._channels_for(fault):
                channel.set_blackhole(False)
        elif kind == "duplicate_delivery":
            for channel in self._channels_for(fault):
                channel.stop_duplication()
        elif kind == "latency_degradation":
            for channel in self._channels_for(fault):
                channel.clear_degradation()
        elif kind == "rb_crash":
            deployment._rb_by_id[fault.target].restart()
        elif kind == "clock_drift":
            deployment._rb_by_id[fault.target].clear_clock_skew()
        elif kind == "ces_hiccup":
            # Healed by script in both modes: a wedged feed process has
            # no standby to promote, so the supervisor can only flag it.
            deployment.ces.resume()
        else:  # pragma: no cover - permanent kinds schedule no recovery
            raise ValueError(f"fault kind {kind!r} has no recovery action")
        self.faults_recovered += 1
        self._record("recover", fault)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic record of what the injector did."""
        return {
            "plan": self.schedule.name,
            "recovery": self.recovery,
            "faults_fired": self.faults_fired,
            "faults_recovered": self.faults_recovered,
            "log": list(self.log),
        }
