"""The generic release engine — one driver for every ordering policy.

Scheme deployments used to each carry a bespoke release loop; the engine
collapses the shared machinery into one place:

* **dedup** — a retransmitted duplicate of a queued or already-released
  trade is counted and dropped, never double-queued;
* **double-release protection** — releasing the same key twice is a
  programming error and raises;
* **timer wiring** — when a policy's :class:`~repro.ordering.policy
  .Admission` carries a ``wake_at``, the engine schedules a drain at
  that instant (priority :data:`WAKE_PRIORITY`, matching the historical
  per-scheme callbacks event for event);
* **counters** — ``trades_received`` / ``trades_released`` /
  ``duplicates_ignored``, which deployments map onto their public
  counter names.

Four schemes — direct, cloudex, fba, libra — run through this engine
with an :class:`~repro.ordering.policy.OrderingPolicy` from
:mod:`repro.ordering`: three as rows of
:class:`repro.baselines.engine.EngineDeployment`, cloudex from
:class:`repro.baselines.cloudex.CloudExDeployment`.  The two delivery-clock schemes (dbo, prob) need
the recovery surface (warm-up, crash, release-log adoption) and the
fused heartbeat path of :class:`repro.core.ordering_buffer.OrderingBuffer`
and run there; nothing drives them through this engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Set

from repro.sim.dense import KeyLog

if TYPE_CHECKING:
    from repro.ordering.policy import OrderingPolicy
    from repro.sim.engine import EventEngine

__all__ = ["ReleaseEngine"]

# Receives released items in their final order: (item, forward_time).
ReleaseCallback = Callable[[Any, float], None]

# Event priority of scheduled drains (the historical CloudEx release
# callback's).
WAKE_PRIORITY = 2


class ReleaseEngine:
    """Drives one :class:`~repro.ordering.policy.OrderingPolicy`.

    Parameters
    ----------
    policy:
        The release decision.  The policy owns the pending store; the
        engine owns identity bookkeeping and the sink.
    sink:
        Receives released items in final order.
    engine:
        The event engine, required only when the policy requests timed
        wakes (``Admission.wake_at``).
    """

    def __init__(
        self,
        policy: "OrderingPolicy",
        sink: ReleaseCallback,
        engine: Optional["EventEngine"] = None,
    ) -> None:
        self.policy = policy
        self.sink = sink
        self._engine = engine
        self._released = KeyLog()
        self._queued: Set[Hashable] = set()
        self.trades_received = 0
        self.trades_released = 0
        self.duplicates_ignored = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._queued)

    # ------------------------------------------------------------------
    def on_trade(self, item: Any, send_time: float, arrival_time: float) -> None:
        """Network-handler entry point for an arriving trade."""
        key = self.policy.key_of(item)
        if key in self._released or key in self._queued:
            self.duplicates_ignored += 1
            return
        self.trades_received += 1
        admission = self.policy.admit(item, arrival_time)
        if admission.release_now:
            self._release(item, key, arrival_time)
            return
        self._queued.add(key)
        if admission.wake_at is not None:
            if self._engine is None:
                raise RuntimeError(
                    f"policy {self.policy.name!r} requested a timed wake "
                    "but the release engine has no event engine"
                )
            self._engine.schedule_at(
                admission.wake_at, self._drain, priority=WAKE_PRIORITY
            )

    def on_boundary(self, now: float) -> None:
        """A batch/auction boundary closed: let the policy regroup, drain."""
        self.policy.on_boundary(now)
        self._pop_due(now)

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        assert self._engine is not None
        self._pop_due(self._engine.now)

    def _pop_due(self, now: float) -> None:
        for item in self.policy.pop_due(now):
            key = self.policy.key_of(item)
            self._queued.discard(key)
            self._release(item, key, now)

    def _release(self, item: Any, key: Hashable, now: float) -> None:
        if not self._released.add_new(key):
            raise RuntimeError(f"trade {key!r} released twice")
        self.trades_released += 1
        self.sink(item, now)

    def flush(self, now: float) -> int:
        """Release everything still pending, in the policy's order.

        End-of-run drain for policies whose hold could outlive the
        simulation horizon.  Returns the number of items flushed.
        """
        flushed = 0
        for item in self.policy.pop_all(now):
            key = self.policy.key_of(item)
            self._queued.discard(key)
            self._release(item, key, now)
            flushed += 1
        return flushed
