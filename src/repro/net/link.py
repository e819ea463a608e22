"""Simulated FIFO links with seeded loss and out-of-band recovery.

The paper's network assumptions (§3):

* latency is unpredictable and potentially unbounded;
* packets that are not dropped are delivered **in order**;
* losses are handled out-of-band: the receiver requests retransmission
  over a slower path, and the system accepts the resulting unfairness for
  the affected trades (Appendix D).

:class:`Link` enforces in-order delivery on top of an arbitrary
:class:`~repro.net.latency.LatencyModel` by clamping each arrival to be no
earlier than the previous arrival, and, when ``loss_probability`` is
positive, adds deterministic, seeded packet loss with the out-of-band
recovery path.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.net.latency import LatencyModel
from repro.sim.engine import EventEngine
from repro.sim.randomness import stable_bool

__all__ = ["Link"]

# A delivery handler receives (message, send_time, arrival_time).
DeliveryHandler = Callable[[Any, float, float], None]


class Link:
    """A unidirectional FIFO link between two components.

    Parameters
    ----------
    engine:
        The event engine that schedules deliveries.
    latency_model:
        One-way latency as a function of send time.
    handler:
        Called as ``handler(message, send_time, arrival_time)`` on
        delivery.  May be set after construction via :meth:`connect`.
    name:
        Optional label for diagnostics.
    priority:
        Engine priority for delivery events.  Data-plane links deliver at
        the default priority 0; control channels that must order after
        (e.g. acks, priority 5) or before (e.g. standby adoption, -1)
        same-time data deliveries set it explicitly.
    loss_probability / recovery_delay / seed:
        Appendix D loss.  Each packet is lost with ``loss_probability``,
        decided deterministically from ``(seed, packet index)``.  A lost
        packet is not simply gone: the receiver notices and requests
        retransmission over a slower path, so it arrives
        ``recovery_delay`` microseconds after its normal arrival, outside
        the FIFO clamp.
    loss_handler:
        Where recovered packets go, so receivers (e.g. the release
        buffer) can apply the paper's rule that retransmitted data does
        not advance the delivery clock.  Without one they reach the
        receive handler, uncounted in :attr:`packets_delivered`.
    """

    __slots__ = (
        "engine", "latency_model", "handler", "name", "priority",
        "_loss_probability", "recovery_delay", "seed", "loss_handler",
        "_last_arrival", "_sent", "_delivered", "_packet_index", "_losses",
        "blackhole", "_burst_loss_probability", "_burst_seed", "_blackholed",
        "_burst_dropped", "_impaired",
    )

    def __init__(
        self,
        engine: EventEngine,
        latency_model: LatencyModel,
        handler: Optional[DeliveryHandler] = None,
        name: str = "link",
        priority: int = 0,
        loss_probability: float = 0.0,
        recovery_delay: float = 1000.0,
        seed: int = 0,
        loss_handler: Optional[DeliveryHandler] = None,
    ) -> None:
        if not 0 <= recovery_delay < math.inf:
            raise ValueError("recovery_delay must be non-negative and finite")
        self.engine = engine
        self.latency_model = latency_model
        self.handler = handler
        self.name = name
        self.priority = priority
        self.recovery_delay = recovery_delay
        self.seed = seed
        self.loss_handler = loss_handler
        self._last_arrival = float("-inf")
        self._sent = 0
        self._delivered = 0
        self._packet_index = 0
        self._losses = 0
        # Fault-injection state: a blackholed link silently drops every
        # packet (network partition); a loss burst drops each packet with
        # a deterministic per-index probability (congestion collapse).
        # Unlike Appendix D losses, these are *not* recovered out-of-band.
        self.blackhole = False
        self._burst_loss_probability = 0.0
        self._burst_seed = 0
        self._blackholed = 0
        self._burst_dropped = 0
        self.loss_probability = loss_probability

    # ------------------------------------------------------------------
    def connect(self, handler: DeliveryHandler) -> None:
        """Attach the receive handler (components are built before wiring)."""
        self.handler = handler

    @property
    def loss_probability(self) -> float:
        """Appendix D loss rate; a write takes effect from the next send."""
        return self._loss_probability

    @loss_probability.setter
    def loss_probability(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self._loss_probability = value
        self._reimpair()

    @property
    def packets_sent(self) -> int:
        return self._sent

    @property
    def packets_delivered(self) -> int:
        return self._delivered

    @property
    def packets_lost(self) -> int:
        return self._losses

    @property
    def packets_blackholed(self) -> int:
        return self._blackholed

    @property
    def packets_dropped_in_burst(self) -> int:
        return self._burst_dropped

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_blackhole(self, active: bool) -> None:
        """Partition this link: while active, every packet vanishes."""
        self.blackhole = bool(active)
        self._reimpair()

    def start_loss_burst(self, loss_probability: float, seed: int = 0) -> None:
        """Begin a loss burst: drop each packet with this probability.

        Decisions are a deterministic function of ``(seed, packet index)``
        so chaos runs are reproducible.  Dropped packets are gone for good
        — there is no out-of-band recovery on the burst path.
        """
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self._burst_loss_probability = float(loss_probability)
        self._burst_seed = int(seed)
        self._reimpair()

    def stop_loss_burst(self) -> None:
        self._burst_loss_probability = 0.0
        self._reimpair()

    def _reimpair(self) -> None:
        """Re-derive the one flag the send path tests: loss, partition or burst."""
        self._impaired = bool(
            self._loss_probability or self.blackhole or self._burst_loss_probability
        )

    def _fault_dropped(self) -> bool:
        """Whether injected faults consume the packet being sent now."""
        if self.blackhole:
            self._blackholed += 1
            return True
        if self._burst_loss_probability and stable_bool(
            self._burst_loss_probability, self._burst_seed, self._sent + self._blackholed + self._burst_dropped
        ):
            self._burst_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    def arrival_time_for(self, send_time: float) -> float:
        """Arrival time a packet sent at ``send_time`` *would* see.

        Pure query — does not mutate FIFO state.  Used by the Max-RTT
        bound computation (Theorem 3) for hypothetical packets.
        """
        return send_time + self.latency_model.latency_at(send_time)

    def send(self, message: Any, send_time: Optional[float] = None) -> float:
        """Send ``message``; returns the scheduled arrival time.

        ``send_time`` defaults to the engine's current time.  In-order
        delivery is enforced: the arrival is clamped to be at or after the
        previous packet's arrival.
        """
        if self.handler is None:
            raise RuntimeError(f"link {self.name!r} has no receive handler")
        engine = self.engine
        t_send = engine.now if send_time is None else send_time
        arrival = t_send + self.latency_model.latency_at(t_send)
        if self._impaired:
            taken = self._impair(message, t_send, arrival)
            if taken is not None:
                return taken
        last = self._last_arrival
        if arrival < last:
            arrival = last
        self._last_arrival = arrival
        self._sent += 1
        # Deliveries are never cancelled: the handle-free push.
        engine.post_at(arrival, self._deliver, self.priority, (message, t_send, arrival))
        return arrival

    def _impair(self, message: Any, t_send: float, arrival: float) -> Optional[float]:
        """Appendix D loss and injected faults: the arrival :meth:`send`
        reports for a packet they take, ``None`` for one that takes the
        normal FIFO path (``arrival`` is its unclamped arrival)."""
        if self._loss_probability:
            index = self._packet_index
            self._packet_index += 1
            if stable_bool(self._loss_probability, self.seed, index):
                if self._fault_dropped():
                    # An injected partition/burst swallows even the
                    # recovery request: the packet is gone for good.
                    return arrival
                # Out-of-band recovery: the message arrives late via the
                # slow path; FIFO state is not advanced for it.
                self._losses += 1
                arrival += self.recovery_delay
                target = self._accept if self.loss_handler is None else self._recover
                self.engine.post_at(arrival, target, 0, (message, t_send, arrival))
                return arrival
        # A packet that vanished in a partition/burst reports the arrival
        # it would have seen, so callers keep a uniform signature.
        return arrival if self._fault_dropped() else None

    def _deliver(self, message: Any, t_send: float, arrival: float) -> None:
        self._delivered += 1
        self.handler(message, t_send, arrival)  # type: ignore[misc]

    def _accept(self, message: Any, send_time: float, arrival_time: float) -> None:
        """Hand a packet to the receiver without counting a wire delivery:
        where recoveries land when no ``loss_handler`` is set."""
        self.handler(message, send_time, arrival_time)  # type: ignore[misc]

    def _recover(self, message: Any, send_time: float, arrival_time: float) -> None:
        """Where recoveries land when a ``loss_handler`` is set."""
        self.loss_handler(message, send_time, arrival_time)  # type: ignore[misc]
