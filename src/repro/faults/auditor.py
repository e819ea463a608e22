"""Online invariant auditor for the LRTF ordering machinery.

The auditor is *observation-only*: it taps the deployment's release and
heartbeat paths (telemetry-style hooks) and never mutates the system.
It checks:

Safety (a violation means the ordering machinery misbehaved — or, under
injected failover/straggler faults, quantifies the unfairness the paper
accepts):

* **release_order** — trades must leave the OB in non-decreasing
  delivery-clock order.  Retransmitted trades released after an OB
  failover carry their original (old) stamps, so failover plans
  *expect* a measurable count here; fault-free runs must show zero.
* **duplicate_release** — no trade key reaches the matching engine
  twice.
* **watermark_regression** — each participant's heartbeat stamps are
  non-decreasing (FIFO links + a monotone delivery clock guarantee it;
  a regression would unsoundly unblock releases).

Liveness (reported separately — stalls are degradation, not
incorrectness):

* **progress_stall** — trades are queued but none released for longer
  than ``stall_timeout`` while the feed is active.
* **heartbeat_gap** — with ``expected_heartbeat_period`` set, a
  participant's OB-observed heartbeat inter-arrival gap exceeded
  ``heartbeat_gap_factor × period``.  Clock-drift faults slow a skewed
  RB's cadence; this surfaces the off-tempo participant without calling
  the (latency-only) degradation unsafe.

For non-DBO schemes (no delivery clocks) the auditor degrades to the
checks that still make sense: duplicate submission and forward-time
monotonicity at the matching engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.exchange.messages import Heartbeat, TaggedTrade

if TYPE_CHECKING:
    from repro.core.aggregation import MasterOB
    from repro.core.ordering_buffer import OrderingBuffer

__all__ = ["InvariantAuditor", "AuditReport", "Violation"]

SAFETY_KINDS = ("release_order", "duplicate_release", "watermark_regression")
LIVENESS_KINDS = ("progress_stall", "heartbeat_gap", "recovery_stalled")
# Measured-degradation kinds: schemes with ``ordering_guarantee ==
# "probabilistic"`` (the ``prob`` row of DBODeployment) *expect*
# a bounded rate of stamp-order regressions; the auditor books them
# under their own kind so they are counted, CI-estimated and compared
# against the theory bound — without flagging the run unsafe.
PROBABILISTIC_KINDS = ("ordering_inversion",)


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    kind: str
    time: float
    detail: str
    mp_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "time": self.time, "detail": self.detail}
        if self.mp_id is not None:
            out["mp_id"] = self.mp_id
        return out


@dataclass
class AuditReport:
    """Structured audit outcome; deterministic for a given run."""

    scheme: str
    violations: List[Violation] = field(default_factory=list)
    releases_checked: int = 0
    heartbeats_checked: int = 0
    # Recovery-protocol state at report time: per-RB retransmission
    # obligations (backoff attempt, next resend) and the supervisor's
    # per-endpoint escalation ladder.  Empty for schemes without the
    # ack/retransmit path or a supervisor.
    recovery: Dict[str, Any] = field(default_factory=dict)

    @property
    def safety_violations(self) -> List[Violation]:
        return [v for v in self.violations if v.kind in SAFETY_KINDS]

    @property
    def liveness_events(self) -> List[Violation]:
        return [v for v in self.violations if v.kind in LIVENESS_KINDS]

    @property
    def ok(self) -> bool:
        """True when no *safety* invariant was violated."""
        return not self.safety_violations

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind] = out.get(violation.kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "ok": self.ok,
            "releases_checked": self.releases_checked,
            "heartbeats_checked": self.heartbeats_checked,
            "counts": dict(sorted(self.counts().items())),
            "violations": [v.to_dict() for v in self.violations],
            "recovery": self.recovery,
        }


class InvariantAuditor:
    """Attachable safety/liveness monitor.

    Usage::

        auditor = InvariantAuditor()
        auditor.attach(deployment)      # before deployment.run(...)
        deployment.run(duration=...)
        report = auditor.report()

    Parameters
    ----------
    stall_timeout:
        µs of zero release progress (while trades are queued) before a
        ``progress_stall`` event is recorded.  ``None`` disables the
        probe (it needs an engine timer; the safety checks are passive).
    stall_check_interval:
        Probe cadence; defaults to ``stall_timeout / 4``.
    expected_heartbeat_period:
        τ of the deployment under audit.  When set, the auditor records a
        ``heartbeat_gap`` liveness event the first time a participant's
        heartbeat inter-arrival gap exceeds
        ``heartbeat_gap_factor × period`` — drift-storm awareness.
        ``None`` (default) disables the check.
    heartbeat_gap_factor:
        Gap tolerance multiplier (network jitter and piggyback
        suppression make modest gaps normal; the default flags a cadence
        at least 4× off-tempo).
    """

    def __init__(
        self,
        stall_timeout: Optional[float] = 50_000.0,
        stall_check_interval: Optional[float] = None,
        expected_heartbeat_period: Optional[float] = None,
        heartbeat_gap_factor: float = 4.0,
    ) -> None:
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        if expected_heartbeat_period is not None and expected_heartbeat_period <= 0:
            raise ValueError("expected_heartbeat_period must be positive")
        if heartbeat_gap_factor <= 1.0:
            raise ValueError("heartbeat_gap_factor must exceed 1")
        self.expected_heartbeat_period = expected_heartbeat_period
        self.heartbeat_gap_factor = heartbeat_gap_factor
        self.stall_timeout = stall_timeout
        self.stall_check_interval = (
            stall_check_interval
            if stall_check_interval is not None
            else (stall_timeout / 4.0 if stall_timeout is not None else None)
        )
        self.deployment: Any = None
        self.attached = False
        # Set at attach() from the deployment's ordering_guarantee: a
        # probabilistic scheme's stamp regressions are expected events.
        self._probabilistic = False
        # The DBO ordering plane's buffers as (report name, buffer), the
        # releasing root first; read per probe, since a failover swaps
        # the OB.  Empty for the other schemes.
        self._live_buffers: Callable[
            [], List[Tuple[str, Union["OrderingBuffer", "MasterOB"]]]
        ] = lambda: []
        self.violations: List[Violation] = []
        self.releases_checked = 0
        self.heartbeats_checked = 0
        # Release-order state.
        self._last_release_stamp: Optional[Tuple[int, float]] = None
        self._released_keys: Set[Tuple[str, int]] = set()
        # Per-participant heartbeat watermark state.
        self._last_heartbeat_stamp: Dict[str, Tuple[int, float]] = {}
        # Per-participant heartbeat arrival times (heartbeat_gap check);
        # one event per participant per off-tempo episode.
        self._last_heartbeat_arrival: Dict[str, float] = {}
        self._gap_reported: Set[str] = set()
        # Non-DBO fallback state.
        self._last_forward_time: Optional[float] = None
        # Stall-probe state.
        self._last_released_count = 0
        self._stall_since: Optional[float] = None
        self._stall_reported = False
        # report() is idempotent: the recovery snapshot's stall events
        # are recorded at most once.
        self._recovery_events_recorded = False

    # ------------------------------------------------------------------
    def attach(self, deployment: Any) -> None:
        """Hook into ``deployment``; call before ``run()``."""
        if self.attached:
            raise RuntimeError("auditor already attached")
        if getattr(deployment, "_built", False):
            raise RuntimeError("attach the auditor before the deployment builds (run())")
        self.deployment = deployment
        self._probabilistic = (
            getattr(deployment, "ordering_guarantee", "deterministic")
            == "probabilistic"
        )
        if hasattr(deployment, "_release_observers"):
            deployment._release_observers.append(self._on_release)
            deployment._heartbeat_observers.append(self._on_heartbeat)
            self._live_buffers = deployment.live_buffers
            if self.stall_timeout is not None:
                deployment.engine.schedule_periodic(
                    self.stall_check_interval,
                    self.stall_check_interval,
                    self._stall_probe,
                    priority=9,
                )
        else:
            self._wrap_matching_engine(deployment)
        self.attached = True

    def _wrap_matching_engine(self, deployment: Any) -> None:
        me = deployment.ces.matching_engine
        original = me.submit

        def audited_submit(trade: Any, *args: Any, **kwargs: Any) -> Any:
            now = deployment.engine.now
            key = trade.key
            self.releases_checked += 1
            if key in self._released_keys:
                self._record("duplicate_release", now, f"trade {key} submitted twice", trade.mp_id)
            else:
                self._released_keys.add(key)
            forward_time = kwargs.get("forward_time")
            if forward_time is not None:
                if (
                    self._last_forward_time is not None
                    and forward_time < self._last_forward_time
                ):
                    self._record(
                        "release_order",
                        now,
                        f"forward_time {forward_time} behind {self._last_forward_time}",
                        trade.mp_id,
                    )
                else:
                    self._last_forward_time = forward_time
            return original(trade, *args, **kwargs)

        me.submit = audited_submit

    # ------------------------------------------------------------------
    # Observers (DBO path)
    # ------------------------------------------------------------------
    def _record(self, kind: str, time: float, detail: str, mp_id: Optional[str] = None) -> None:
        self.violations.append(Violation(kind=kind, time=time, detail=detail, mp_id=mp_id))

    def _on_release(self, tagged: TaggedTrade, now: float) -> None:
        self.releases_checked += 1
        key = tagged.trade.key
        if key in self._released_keys:
            self._record(
                "duplicate_release", now, f"trade {key} released twice", tagged.trade.mp_id
            )
        else:
            self._released_keys.add(key)
        stamp = tagged.clock.key
        if self._last_release_stamp is not None and stamp < self._last_release_stamp:
            self._record(
                "ordering_inversion" if self._probabilistic else "release_order",
                now,
                f"stamp {stamp} released after {self._last_release_stamp}",
                tagged.trade.mp_id,
            )
        else:
            self._last_release_stamp = stamp

    def _on_heartbeat(self, heartbeat: Heartbeat, arrival: float) -> None:
        if self.expected_heartbeat_period is not None:
            previous_arrival = self._last_heartbeat_arrival.get(heartbeat.mp_id)
            self._last_heartbeat_arrival[heartbeat.mp_id] = arrival
            if previous_arrival is not None:
                gap = arrival - previous_arrival
                limit = self.heartbeat_gap_factor * self.expected_heartbeat_period
                if gap > limit:
                    if heartbeat.mp_id not in self._gap_reported:
                        self._gap_reported.add(heartbeat.mp_id)
                        self._record(
                            "heartbeat_gap",
                            arrival,
                            f"heartbeat gap {gap:.1f} µs exceeds "
                            f"{self.heartbeat_gap_factor:.1f}x period "
                            f"{self.expected_heartbeat_period:.1f} µs",
                            heartbeat.mp_id,
                        )
                else:
                    # Back on tempo: allow a fresh event next episode.
                    self._gap_reported.discard(heartbeat.mp_id)
        if heartbeat.clock is None:
            return
        self.heartbeats_checked += 1
        stamp = heartbeat.clock.key
        previous = self._last_heartbeat_stamp.get(heartbeat.mp_id)
        if previous is not None and stamp < previous:
            self._record(
                "watermark_regression",
                arrival,
                f"heartbeat stamp {stamp} behind {previous}",
                heartbeat.mp_id,
            )
        else:
            self._last_heartbeat_stamp[heartbeat.mp_id] = stamp

    # ------------------------------------------------------------------
    # Liveness probe
    # ------------------------------------------------------------------
    def _queued_depth(self) -> int:
        return sum(buffer.queue_depth for _, buffer in self._live_buffers())

    def _released_count(self) -> int:
        buffers = self._live_buffers()
        return buffers[0][1].trades_released if buffers else 0

    def _stall_probe(self) -> None:
        now = self.deployment.engine.now
        released = self._released_count()
        if released > self._last_released_count or self._queued_depth() == 0:
            # Progress (or nothing pending): reset the stall window.
            self._last_released_count = released
            self._stall_since = None
            self._stall_reported = False
            return
        if self._stall_since is None:
            self._stall_since = now
            return
        if not self._stall_reported and now - self._stall_since >= self.stall_timeout:
            self._record(
                "progress_stall",
                now,
                f"no release for {now - self._stall_since:.0f} µs with "
                f"{self._queued_depth()} trades queued",
            )
            self._stall_reported = True

    # ------------------------------------------------------------------
    # Recovery-protocol snapshot (report time)
    # ------------------------------------------------------------------
    def _recovery_snapshot(self) -> Dict[str, Any]:
        """RB retransmission + supervisor escalation state at report time.

        A recovery that never completed must not vanish into a hung
        run: a component still warming up, an endpoint stuck
        mid-escalation, or an RB holding unacked trades at drain time is
        recorded as a ``recovery_stalled`` liveness event alongside the
        raw state snapshot.
        """
        deployment = self.deployment
        out: Dict[str, Any] = {}
        if deployment is None:
            return out
        record = self._record
        if self._recovery_events_recorded:
            def record(*_args, **_kwargs) -> None:  # noqa: E306
                return None
        self._recovery_events_recorded = True
        now = deployment.engine.now
        buffers = getattr(deployment, "release_buffers", None)
        if buffers:
            rb_states = {rb.mp_id: rb.recovery_state() for rb in buffers}
            out["rb"] = rb_states
            for mp_id in sorted(rb_states):
                state = rb_states[mp_id]
                if state["unacked"]:
                    record(
                        "recovery_stalled",
                        now,
                        f"RB {mp_id} holds {state['unacked']:.0f} unacked "
                        f"trades at report time (attempt {state['max_attempt']:.0f})",
                        mp_id,
                    )
        warming = [name for name, buffer in self._live_buffers() if buffer.warming_up]
        if warming:
            out["warming_up"] = warming
            for name in warming:
                record(
                    "recovery_stalled",
                    now,
                    f"{name} still holds a warm-up fence at report time",
                )
        supervisor = getattr(deployment, "supervisor", None)
        if supervisor is not None:
            out["supervisor"] = supervisor.escalation_state()
            for endpoint in supervisor.stalled_endpoints():
                record(
                    "recovery_stalled",
                    now,
                    f"supervisor escalation for {endpoint} stuck in "
                    f"{supervisor.escalation_state()[endpoint]['state']!r}",
                )
        return out

    # ------------------------------------------------------------------
    def report(self) -> AuditReport:
        scheme = (
            self.deployment.scheme_name if self.deployment is not None else "unattached"
        )
        recovery = self._recovery_snapshot()
        return AuditReport(
            scheme=scheme,
            violations=list(self.violations),
            releases_checked=self.releases_checked,
            heartbeats_checked=self.heartbeats_checked,
            recovery=recovery,
        )
