"""A single-server FIFO service queue: finite processing capacity.

§5.2's scaling argument — "with higher numbers of MPs, a single OB
instance would become the bottleneck (in aggregate, number of heartbeats
scale linearly with participants)" — is about *CPU*, not network.  The
event-driven components in this repository process messages in zero
simulated time by default, which hides that bottleneck; wrapping a
component's intake in a :class:`ServiceQueue` restores it: each message
occupies the server for ``service_time`` µs and queues behind its
predecessors, so offered load beyond ``1/service_time`` msgs/µs builds
delay exactly like a saturated core.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import EventEngine

__all__ = ["ServiceQueue"]


class ServiceQueue:
    """M/D/1-style deterministic-service single server.

    Parameters
    ----------
    engine:
        Event engine.
    service_time:
        Per-message processing time, µs.
    handler:
        Called as ``handler(item, completion_time)`` when a message's
        service completes.
    name:
        Diagnostics label.
    """

    def __init__(
        self,
        engine: EventEngine,
        service_time: float,
        handler: Optional[Callable[[Any, float], None]] = None,
        name: str = "service-queue",
    ) -> None:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self.engine = engine
        self.service_time = float(service_time)
        self.handler = handler
        self.name = name
        self._free_at = 0.0
        self.messages_served = 0
        self.busy_time = 0.0
        self.max_delay = 0.0

    def connect(self, handler: Callable[[Any, float], None]) -> None:
        self.handler = handler

    @property
    def backlog_delay(self) -> float:
        """Wait a message arriving now would experience before service."""
        return max(0.0, self._free_at - self.engine.now)

    def submit(self, item: Any) -> float:
        """Enqueue a message; returns its service-completion time."""
        if self.handler is None:
            raise RuntimeError(f"service queue {self.name!r} has no handler")
        now = self.engine.now
        start = max(now, self._free_at)
        completion = start + self.service_time
        self._free_at = completion
        self.messages_served += 1
        self.busy_time += self.service_time
        self.max_delay = max(self.max_delay, completion - now)

        # Fast path keyed on the *configured constant* 0.0, not a derived
        # simulated time — exact equality is the intended sentinel test.
        if self.service_time == 0.0:  # dbo: ignore[DBO107]
            self.handler(item, now)
            return now

        self.engine.schedule_at(
            completion, self._complete, priority=4, args=(item, completion)
        )
        return completion

    def _complete(self, item: Any, completion: float) -> None:
        self.handler(item, completion)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving (capped at 1)."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        return min(1.0, self.busy_time / elapsed)
