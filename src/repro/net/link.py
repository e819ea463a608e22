"""Simulated network links with FIFO delivery and lossy variants.

The paper's network assumptions (§3):

* latency is unpredictable and potentially unbounded;
* packets that are not dropped are delivered **in order**;
* losses are handled out-of-band: the receiver requests retransmission
  over a slower path, and the system accepts the resulting unfairness for
  the affected trades (Appendix D).

:class:`Link` enforces in-order delivery on top of an arbitrary
:class:`~repro.net.latency.LatencyModel` by clamping each arrival to be no
earlier than the previous arrival.  :class:`LossyLink` adds deterministic,
seeded packet loss with the out-of-band recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.net.latency import LatencyModel
from repro.sim.engine import EventEngine
from repro.sim.randomness import stable_bool
from repro.sim.runtime import as_runtime

__all__ = ["Link", "LossyLink", "DeliveryRecord"]

# A delivery handler receives (message, send_time, arrival_time).
DeliveryHandler = Callable[[Any, float, float], None]


@dataclass
class DeliveryRecord:
    """Book-keeping for one packet traversal (used by metrics and tests)."""

    message: Any
    send_time: float
    arrival_time: float
    raw_latency: float
    fifo_clamped: bool
    lost: bool = False
    recovered_at: Optional[float] = None


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
    record:
        When true, keeps a :class:`DeliveryRecord` per packet (tests and
        metric computation); large experiments leave it off.
    priority:
        Engine priority for delivery events.  Data-plane links deliver at
        the default priority 0; control channels that must order after
        (e.g. acks, priority 5) or before (e.g. standby adoption, -1)
        same-time data deliveries set it explicitly.
    """

    def __init__(
        self,
        engine: EventEngine,
        latency_model: LatencyModel,
        handler: Optional[DeliveryHandler] = None,
        name: str = "link",
        record: bool = False,
        priority: int = 0,
    ) -> None:
        self.runtime = as_runtime(engine)
        self.engine = self.runtime.engine
        self.latency_model = latency_model
        self.handler = handler
        self.name = name
        self.record = record
        self.priority = priority
        self.records: List[DeliveryRecord] = []
        # The callback `send` schedules for arrivals.  Defaults to the
        # layered `_deliver`; a channel may install a fused closure that
        # folds the link and channel delivery frames into one (it must
        # keep the `_delivered` odometer exact).
        self._deliver_target: DeliveryHandler = self._deliver
        self._last_arrival = float("-inf")
        self._sent = 0
        self._delivered = 0
        # Fault-injection state: a blackholed link silently drops every
        # packet (network partition); a loss burst drops each packet with
        # a deterministic per-index probability (congestion collapse).
        # Unlike LossyLink drops, these are *not* recovered out-of-band.
        self.blackhole = False
        self._burst_loss_probability = 0.0
        self._burst_seed = 0
        self._blackholed = 0
        self._burst_dropped = 0

    # ------------------------------------------------------------------
    def connect(self, handler: DeliveryHandler) -> None:
        """Attach the receive handler (components are built before wiring)."""
        self.handler = handler
        # A plain re-connect drops any previously installed fused target.
        self._deliver_target = self._deliver

    @property
    def packets_sent(self) -> int:
        return self._sent

    @property
    def packets_delivered(self) -> int:
        return self._delivered

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

    def stop_loss_burst(self) -> None:
        self._burst_loss_probability = 0.0

    def _fault_dropped(self, send_time: float) -> bool:
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
        if self.blackhole or self._burst_loss_probability:
            if self._fault_dropped(t_send):
                # The packet vanished in a partition/burst; report the
                # arrival it would have seen so callers keep a uniform
                # signature.
                return t_send + self.latency_model.latency_at(t_send)
        raw = self.latency_model.latency_at(t_send)
        arrival = t_send + raw
        last = self._last_arrival
        if arrival < last:
            clamped = True
            arrival = last
        else:
            clamped = False
        self._last_arrival = arrival
        self._sent += 1
        if self.record:
            self.records.append(
                DeliveryRecord(
                    message=message,
                    send_time=t_send,
                    arrival_time=arrival,
                    raw_latency=raw,
                    fifo_clamped=clamped,
                )
            )
        # Deliveries are never cancelled: the handle-free push.
        engine.post_at(arrival, self._deliver_target, self.priority, (message, t_send, arrival))
        return arrival

    def _deliver(self, message: Any, t_send: float, arrival: float) -> None:
        handler = self.handler
        if handler is None:  # pragma: no cover - send() validates before scheduling
            raise RuntimeError(f"link {self.name!r} lost its handler in flight")
        self._delivered += 1
        handler(message, t_send, arrival)


class LossyLink(Link):
    """A FIFO link that drops packets and recovers them out-of-band.

    Matching Appendix D, a dropped packet is not simply lost: the receiver
    notices and requests retransmission over a slower path, so the message
    eventually arrives after ``recovery_delay`` extra microseconds.  The
    delivery handler receives a ``lost`` keyword through the optional
    ``loss_handler`` channel so receivers (e.g. the release buffer) can
    apply the paper's rule that retransmitted data does not advance the
    delivery clock.

    Loss decisions are a deterministic function of ``(seed, packet_index)``
    so runs are reproducible.
    """

    def __init__(
        self,
        engine: EventEngine,
        latency_model: LatencyModel,
        loss_probability: float = 0.0,
        recovery_delay: float = 1000.0,
        seed: int = 0,
        handler: Optional[DeliveryHandler] = None,
        loss_handler: Optional[DeliveryHandler] = None,
        name: str = "lossy-link",
        record: bool = False,
        priority: int = 0,
    ) -> None:
        super().__init__(
            engine, latency_model, handler=handler, name=name, record=record, priority=priority
        )
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if recovery_delay < 0:
            raise ValueError("recovery_delay must be non-negative")
        self.loss_probability = loss_probability
        self.recovery_delay = recovery_delay
        self.seed = seed
        self.loss_handler = loss_handler
        self._packet_index = 0
        self._losses = 0

    @property
    def packets_lost(self) -> int:
        return self._losses

    def send(self, message: Any, send_time: Optional[float] = None) -> float:
        index = self._packet_index
        self._packet_index += 1
        t_send = self.engine.now if send_time is None else send_time
        if self.loss_probability and stable_bool(self.loss_probability, self.seed, index):
            # Out-of-band recovery: the message arrives late via the slow
            # path; FIFO state is not advanced for it (it is out-of-band).
            # The recovery target is validated *before* loss statistics
            # are mutated so a wiring error leaves the counters clean.
            target = self.loss_handler or self.handler
            if target is None:
                raise RuntimeError(f"link {self.name!r} has no receive handler")
            if self._fault_dropped(t_send):
                # An injected partition/burst swallows even the recovery
                # request: the packet is gone for good.
                return t_send + self.latency_model.latency_at(t_send)
            self._losses += 1
            raw = self.latency_model.latency_at(t_send)
            recovered = t_send + raw + self.recovery_delay
            if self.record:
                self.records.append(
                    DeliveryRecord(
                        message=message,
                        send_time=t_send,
                        arrival_time=recovered,
                        raw_latency=raw,
                        fifo_clamped=False,
                        lost=True,
                        recovered_at=recovered,
                    )
                )

            # The recovery target is resolved at send time (historical
            # semantics); it rides along as a scheduled-call argument.
            self.engine.post_at(recovered, target, 0, (message, t_send, recovered))
            return recovered
        return super().send(message, send_time)
