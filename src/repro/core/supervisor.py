"""Supervised automatic recovery: suspect → probe → confirm → recover.

The :class:`~repro.faults.detector.FailureDetector` raises SUSPECT when
an endpoint falls silent; this module decides what to do about it.  The
:class:`Supervisor` subscribes to detector events and escalates each
suspect through a deterministic probe ladder — probe *k* waits
``check_interval * probe_backoff**k`` — before confirming death.  A
pulse at any point during probing clears the suspicion (a false alarm,
counted, never acted on).  On CONFIRM_DEAD the supervisor invokes a
recovery action supplied by the deployment.  For DBO that is the
recover half of the endpoint's row in the crash/recover table,
:meth:`repro.core.recovery.RecoveryPlaybooks.recover` — the same code
the scripted fault injector runs (``ob``, ``shard:{id}``, ``agg:{id}``,
``gateway``).  ``rb:{mp}`` / ``feed`` confirmations are recorded but
have no recovery: an RB crash loses its pre-crash window by design and
the feed is external.

Escalation state is exported for the chaos auditor
(:meth:`escalation_state`), so a recovery that never completes shows up
as a first-class audit event rather than a silent hang.  All scheduling
rides the simulation engine; nothing here reads wall clocks or ambient
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.params import SupervisionPolicy
from repro.faults.detector import FailureDetector
from repro.sim.engine import EventEngine, ScheduledEvent

__all__ = ["Escalation", "Supervisor"]


# (endpoint name, simulation time) -> True when a recovery action ran.
# A RuntimeError counts as False: the confirmed endpoint is not down (a
# live component fell silent, say every participant it serves crashed).
RecoveryAction = Callable[[str, float], bool]


@dataclass
class Escalation:
    """Per-endpoint escalation ladder state."""

    name: str
    state: str = "ok"  # ok | suspect | confirmed | recovered | unrecoverable
    suspected_at: Optional[float] = None
    confirmed_at: Optional[float] = None
    recovered_at: Optional[float] = None
    probes_failed: int = 0
    probe_event: Optional[ScheduledEvent] = None

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "suspected_at": self.suspected_at,
            "confirmed_at": self.confirmed_at,
            "recovered_at": self.recovered_at,
            "probes_failed": self.probes_failed,
        }


@dataclass
class SupervisorEvent:
    """One line of the supervisor's decision log."""

    time: float
    endpoint: str
    event: str  # suspect | alive | probe | confirm | recover | unrecoverable

    def to_dict(self) -> Dict[str, object]:
        return {"time": self.time, "endpoint": self.endpoint, "event": self.event}


class Supervisor:
    """Drives detector suspicions through probes to confirmed recovery."""

    def __init__(
        self,
        engine: EventEngine,
        detector: FailureDetector,
        policy: SupervisionPolicy,
        recover: RecoveryAction,
    ) -> None:
        self.engine = engine
        self.detector = detector
        self.policy = policy
        self._recover = recover
        self._escalations: Dict[str, Escalation] = {}
        self._stop_after = float("inf")
        self.log: List[SupervisorEvent] = []
        self.probes_sent = 0
        self.false_alarms = 0
        self.confirms = 0
        self.recoveries = 0
        self.unrecoverable = 0
        detector.subscribe(self._on_detector_event)

    def start(self, stop_after: float) -> None:
        """Ignore escalations past ``stop_after`` (drain-phase silence)."""
        self._stop_after = stop_after

    def _log(self, time: float, endpoint: str, event: str) -> None:
        self.log.append(SupervisorEvent(time=time, endpoint=endpoint, event=event))

    # ------------------------------------------------------------------
    # Detector event intake
    # ------------------------------------------------------------------
    def _on_detector_event(self, name: str, event: str, now: float) -> None:
        if now > self._stop_after:
            return
        esc = self._escalations.setdefault(name, Escalation(name=name))
        if event == "suspect":
            if esc.state in ("confirmed", "unrecoverable"):
                return
            esc.state = "suspect"
            esc.suspected_at = now
            esc.probes_failed = 0
            self._log(now, name, "suspect")
            self._schedule_probe(esc, now)
        elif event == "alive":
            if esc.state == "unrecoverable":
                # The endpoint healed externally (e.g. a scripted feed
                # resume) — reflect reality rather than a stale verdict.
                esc.state = "ok"
                esc.probes_failed = 0
                self._log(now, name, "alive")
                return
            if esc.state != "suspect":
                return
            if esc.probe_event is not None:
                self.engine.cancel(esc.probe_event)
                esc.probe_event = None
            esc.state = "ok"
            esc.probes_failed = 0
            self.false_alarms += 1
            self._log(now, name, "alive")

    # ------------------------------------------------------------------
    # Probe ladder
    # ------------------------------------------------------------------
    def _schedule_probe(self, esc: Escalation, now: float) -> None:
        delay = self.detector.check_interval * (
            self.policy.probe_backoff**esc.probes_failed
        )
        esc.probe_event = self.engine.schedule_at(
            now + delay, self._probe, priority=8, args=(esc.name,)
        )

    def _probe(self, name: str) -> None:
        now = self.engine.now
        esc = self._escalations[name]
        esc.probe_event = None
        if esc.state != "suspect" or now > self._stop_after:
            return
        assert esc.suspected_at is not None
        self.probes_sent += 1
        self._log(now, name, "probe")
        if self.detector.pulsed_since(name, esc.suspected_at):
            # The endpoint recovered on its own between checks; the
            # detector's own "alive" normally beats us here, but a pulse
            # without a registered gap can slip past it.
            esc.state = "ok"
            esc.probes_failed = 0
            self.false_alarms += 1
            self._log(now, name, "alive")
            return
        esc.probes_failed += 1
        if esc.probes_failed < self.policy.confirm_after:
            self._schedule_probe(esc, now)
            return
        self._confirm(esc, now)

    def _confirm(self, esc: Escalation, now: float) -> None:
        esc.state = "confirmed"
        esc.confirmed_at = now
        self.confirms += 1
        self._log(now, esc.name, "confirm")
        try:
            recovered = self._recover(esc.name, now)
        except RuntimeError:
            recovered = False
        if recovered:
            esc.state = "recovered"
            esc.recovered_at = now
            self.recoveries += 1
            self._log(now, esc.name, "recover")
        else:
            esc.state = "unrecoverable"
            self.unrecoverable += 1
            self._log(now, esc.name, "unrecoverable")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def escalation_state(self) -> Dict[str, Dict[str, object]]:
        """Sorted per-endpoint ladder snapshots (for the chaos auditor)."""
        return {
            name: self._escalations[name].snapshot()
            for name in sorted(self._escalations)
        }

    def stalled_endpoints(self) -> List[str]:
        """Endpoints stuck mid-escalation (suspect/confirmed, no recovery)."""
        return [
            name
            for name in sorted(self._escalations)
            if self._escalations[name].state in ("suspect", "confirmed")
        ]

    def counters(self) -> Dict[str, float]:
        return {
            "supervisor_probes": float(self.probes_sent),
            "supervisor_false_alarms": float(self.false_alarms),
            "supervisor_confirms": float(self.confirms),
            "supervisor_recoveries": float(self.recoveries),
            "supervisor_unrecoverable": float(self.unrecoverable),
        }
