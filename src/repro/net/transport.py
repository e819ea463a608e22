"""The message plane: named, addressable, faultable FIFO channels.

The paper's network assumptions (§3):

* latency is unpredictable and potentially unbounded;
* packets that are not dropped are delivered **in order**;
* losses are handled out-of-band: the receiver requests retransmission
  over a slower path, and the system accepts the resulting unfairness for
  the affected trades (Appendix D).

Its guarantees (§4.1.3, Appendix E) are stated over a network in which
*every* message — market data, trades, heartbeats, acks — can be
delayed, dropped, or duplicated, so every message path is a channel:

* a :class:`Channel` is one named unidirectional message path.  It
  enforces in-order delivery on top of an arbitrary
  :class:`~repro.net.latency.LatencyModel` by clamping each arrival to be
  no earlier than the previous arrival; when ``loss_probability`` is
  positive it adds deterministic, seeded packet loss with the
  out-of-band recovery path.  It carries the injected faults (partition,
  burst loss, latency degradation, **at-least-once duplication** — each
  message is delivered a second time with a seeded per-index
  probability, the classic behaviour of retry-based transports), per-
  channel odometers (sent/delivered/dropped/duplicated/deduped), and an
  optional **receiver-side dedup hook** keyed by a caller-supplied
  message key, which every copy passes — a wire delivery, a duplicate,
  and an Appendix D recovery alike, so the first copy to arrive wins;
* a :class:`Transport` is a deployment's registry of channels, addressable
  by name, so the fault injector can aim ``partition`` / burst-loss /
  ``latency_degradation`` / ``duplicate_delivery`` at *any* message path
  — ``"ack-mp3"`` as easily as ``"fwd-mp0"``.

Duplication deliberately re-sends at the *same* send time: latency models
are pure functions of ``(seed, t)``, so the duplicate shares the
original's arrival and the FIFO clamp leaves every later packet's timing
untouched.  A receiver that dedups (at the channel, or like the ordering
buffer on trade keys) therefore produces a byte-identical trade ordering
— which is exactly the at-least-once-is-safe property the tests pin.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional

from repro.net.latency import DegradedLatency, LatencyModel
from repro.sim.dense import KeyLog
from repro.sim.engine import EventEngine
from repro.sim.randomness import stable_bool

__all__ = ["Channel", "Transport"]

# A delivery handler receives (message, send_time, arrival_time).
DeliveryHandler = Callable[[Any, float, float], None]
# Maps a message to a hashable identity for receiver-side dedup.
MessageKey = Callable[[Any], Hashable]


class Channel:
    """One named unidirectional FIFO message path between two components.

    Parameters
    ----------
    name:
        Unique channel name (the fault injector's address).
    engine:
        The event engine that schedules deliveries.
    latency_model:
        One-way latency as a function of send time.
    source / destination:
        Endpoint labels, for reports and the architecture table.
    dedup_key:
        Optional ``message -> hashable`` accessor.  When set, the channel
        drops (and counts as ``deduped``) any copy whose key was already
        seen — receiver-side protection for payloads whose consumer
        cannot tolerate at-least-once delivery.  Out-of-band loss
        recovery passes the same hook before it reaches
        ``loss_handler``: under duplication a recovered packet is not
        necessarily a first delivery (the duplicate of a lost primary
        may have landed first), and the first copy wins.  The seen keys
        live in a :class:`~repro.sim.dense.KeyLog`.
    handler:
        Called as ``handler(message, send_time, arrival_time)`` on
        delivery.  May be set after construction via :meth:`connect`.
    priority:
        Engine priority for delivery events.  Data-plane channels deliver
        at the default priority 0; control channels that must order after
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
        receive handler.
    """

    # ``_deliver`` is a slot: the arrival method picked once, at
    # construction, so dedup-free channels (the heartbeat lane) pay one
    # frame per arrival.
    __slots__ = (
        "name", "engine", "latency_model", "source", "destination", "handler",
        "priority", "_loss_probability", "recovery_delay", "seed", "loss_handler",
        "_dedup_key", "_seen", "_deliver", "_last_arrival", "_sent",
        "_packet_index", "_losses", "blackhole", "_burst_loss_probability",
        "_burst_seed", "_blackholed", "_burst_dropped", "_impaired",
        "_dup_probability", "_dup_seed", "_dup_index", "_messages_sent",
        "_messages_delivered", "_messages_duplicated", "_messages_deduped",
    )

    def __init__(
        self,
        name: str,
        engine: EventEngine,
        latency_model: LatencyModel,
        source: str = "",
        destination: str = "",
        dedup_key: Optional[MessageKey] = None,
        handler: Optional[DeliveryHandler] = None,
        priority: int = 0,
        loss_probability: float = 0.0,
        recovery_delay: float = 1000.0,
        seed: int = 0,
        loss_handler: Optional[DeliveryHandler] = None,
    ) -> None:
        if not 0 <= recovery_delay < math.inf:
            raise ValueError("recovery_delay must be non-negative and finite")
        self.name = name
        self.engine = engine
        self.latency_model = latency_model
        self.source = source
        self.destination = destination
        self.handler = handler
        self.priority = priority
        self.recovery_delay = recovery_delay
        self.seed = seed
        self.loss_handler = loss_handler
        self._dedup_key = dedup_key
        # A channel without a dedup key keeps no seen-log.
        self._seen: Optional[KeyLog] = None if dedup_key is None else KeyLog()
        self._deliver = self._deliver_all if dedup_key is None else self._accept
        self._last_arrival = float("-inf")
        self._sent = 0
        self._packet_index = 0
        self._losses = 0
        # Fault-injection state: a blackholed channel silently drops every
        # packet (network partition); a loss burst drops each packet with
        # a deterministic per-index probability (congestion collapse).
        # Unlike Appendix D losses, these are *not* recovered out-of-band.
        self.blackhole = False
        self._burst_loss_probability = 0.0
        self._burst_seed = 0
        self._blackholed = 0
        self._burst_dropped = 0
        self.loss_probability = loss_probability
        # At-least-once duplication state (fault injection).
        self._dup_probability = 0.0
        self._dup_seed = 0
        self._dup_index = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_duplicated = 0
        self._messages_deduped = 0

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

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Any, send_time: Optional[float] = None) -> float:
        """Send ``message``; returns the (primary copy's) scheduled arrival.

        ``send_time`` defaults to the engine's current time.  In-order
        delivery is enforced: the arrival is clamped to be at or after the
        previous packet's arrival.  While duplication is active, a seeded
        per-index coin decides whether an extra copy rides along at the
        same send time; the state is read here, per message, so a
        :meth:`start_duplication` mid-run reaches the very next message.
        """
        if self.handler is None:
            raise RuntimeError(f"channel {self.name!r} has no receive handler")
        t_send = self.engine.now if send_time is None else send_time
        self._messages_sent += 1
        arrival = self._transmit(message, t_send)
        if self._dup_probability:
            index = self._dup_index
            self._dup_index += 1
            if stable_bool(self._dup_probability, self._dup_seed, index):
                self._messages_duplicated += 1
                self._transmit(message, t_send)
        return arrival

    def _transmit(self, message: Any, t_send: float) -> float:
        """Put one copy on the wire: loss, faults, the FIFO clamp."""
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
        self.engine.post_at(arrival, self._deliver, self.priority, (message, t_send, arrival))
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

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_all(self, message: Any, send_time: float, arrival_time: float) -> None:
        self._messages_delivered += 1
        self.handler(message, send_time, arrival_time)  # type: ignore[misc]

    def _accept(self, message: Any, send_time: float, arrival_time: float) -> None:
        """The receiver side: dedup hook, channel odometer, handler.
        Recoveries land here when no ``loss_handler`` is set."""
        seen = self._seen
        if seen is not None and not seen.add_new(self._dedup_key(message)):  # type: ignore[misc]
            self._messages_deduped += 1
            return
        self._messages_delivered += 1
        self.handler(message, send_time, arrival_time)  # type: ignore[misc]

    def _recover(self, message: Any, send_time: float, arrival_time: float) -> None:
        """A recovery bound for ``loss_handler``: the dedup hook, then the
        handler, uncounted as a channel delivery."""
        seen = self._seen
        if seen is not None and not seen.add_new(self._dedup_key(message)):  # type: ignore[misc]
            self._messages_deduped += 1
            return
        self.loss_handler(message, send_time, arrival_time)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_blackhole(self, active: bool) -> None:
        """Partition this channel: while active, every packet vanishes."""
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

    def start_duplication(self, probability: float, seed: int = 0) -> None:
        """Begin at-least-once delivery: duplicate each message with
        ``probability``, decided deterministically per message index."""
        if not 0.0 < probability <= 1.0:
            raise ValueError("duplication probability must be in (0, 1]")
        self._dup_probability = float(probability)
        self._dup_seed = int(seed)

    def stop_duplication(self) -> None:
        self._dup_probability = 0.0

    def degrade(self, extra: float = 0.0, factor: float = 1.0) -> None:
        """Worsen this channel's latency: ``latency ← factor·base + extra``.

        The latency model is wrapped in a
        :class:`~repro.net.latency.DegradedLatency` on first use; the
        wrapper is transparent while healed, so wrapping alone never
        perturbs a run.
        """
        model: LatencyModel = self.latency_model
        if not isinstance(model, DegradedLatency):
            model = DegradedLatency(model)
            self.latency_model = model
        model.set_degradation(extra=extra, factor=factor)

    def clear_degradation(self) -> None:
        model = self.latency_model
        if isinstance(model, DegradedLatency):
            model.clear()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        return self._sent

    @property
    def packets_lost(self) -> int:
        return self._losses

    @property
    def packets_blackholed(self) -> int:
        return self._blackholed

    @property
    def packets_dropped_in_burst(self) -> int:
        return self._burst_dropped

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_duplicated(self) -> int:
        return self._messages_duplicated

    @property
    def messages_deduped(self) -> int:
        return self._messages_deduped

    @property
    def messages_dropped(self) -> int:
        """Messages consumed by injected faults (partition/burst)."""
        return self._blackholed + self._burst_dropped

    def counters(self) -> Dict[str, float]:
        """Per-channel odometers."""
        out: Dict[str, float] = {
            "sent": float(self._messages_sent),
            "delivered": float(self._messages_delivered),
            "dropped": float(self.messages_dropped),
            "duplicated": float(self._messages_duplicated),
            "deduped": float(self._messages_deduped),
        }
        if self.loss_probability:
            out["lost"] = float(self._losses)
        return out


class Transport:
    """A deployment's registry of named channels.

    Channel names are unique; iteration and counter aggregation are in
    sorted name order so every report derived from a transport is
    deterministic regardless of wiring order.
    """

    def __init__(self) -> None:
        self._channels: Dict[str, Channel] = {}

    def open_channel(
        self,
        name: str,
        engine: EventEngine,
        latency_model: LatencyModel,
        handler: Optional[DeliveryHandler] = None,
        **options: Any,
    ) -> Channel:
        """Build and register the channel ``name``; names are unique.

        ``options`` are :class:`Channel`'s (``source``, ``destination``,
        ``dedup_key``, ``priority``, ``loss_probability``,
        ``recovery_delay``, ``seed``, ``loss_handler``)."""
        if name in self._channels:
            raise ValueError(f"duplicate channel name: {name!r}")
        channel = Channel(name, engine, latency_model, **options)
        if handler is not None:
            channel.connect(handler)
        self._channels[name] = channel
        return channel

    def channel(self, name: str) -> Channel:
        """Look up a channel by name (the injector's address resolution)."""
        try:
            return self._channels[name]
        except KeyError:
            raise KeyError(
                f"no channel named {name!r}; available: {sorted(self._channels)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[Channel]:
        for name in sorted(self._channels):
            yield self._channels[name]

    def names(self) -> List[str]:
        return sorted(self._channels)

    def counters(self) -> Dict[str, Dict[str, float]]:
        """``{channel name: per-channel odometers}``, sorted by name."""
        return {name: self._channels[name].counters() for name in sorted(self._channels)}
