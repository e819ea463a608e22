"""The message plane: named, addressable, faultable channels.

The paper's guarantees (§4.1.3, Appendix E) are stated over a network in
which *every* message — market data, trades, heartbeats, acks — can be
delayed, dropped, or duplicated, so every message path is a channel:

* a :class:`Channel` is one named unidirectional message path: a
  :class:`~repro.net.link.Link` (latency model, FIFO clamp, Appendix D
  loss, partition/burst faults) that adds per-channel odometers
  (sent/delivered/dropped/duplicated/deduped), optional **at-least-once
  duplication** (each message is delivered a second time with a seeded
  per-index probability — the classic behaviour of retry-based
  transports), and an optional **receiver-side dedup hook** keyed by a
  caller-supplied message key, which every copy passes — a wire
  delivery, a duplicate, and an Appendix D recovery alike, so the first
  copy to arrive wins;
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

from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional

from repro.net.latency import DegradedLatency, LatencyModel
from repro.net.link import DeliveryHandler, Link
from repro.sim.dense import KeyLog
from repro.sim.engine import EventEngine
from repro.sim.randomness import stable_bool

__all__ = ["Channel", "Transport"]

# Maps a message to a hashable identity for receiver-side dedup.
MessageKey = Callable[[Any], Hashable]


class Channel(Link):
    """One named unidirectional message path: a FIFO link with a name.

    Parameters
    ----------
    name:
        Unique channel name (the fault injector's address).
    engine / latency_model / **link_options:
        As for :class:`~repro.net.link.Link` (``handler``, ``priority``,
        ``loss_probability``, ``recovery_delay``, ``seed``,
        ``loss_handler``).
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
    """

    # ``_deliver`` is a slot here: it shadows :meth:`Link._deliver` with
    # the arrival method picked once, at construction, so dedup-free
    # channels (the heartbeat lane) pay one frame per arrival.
    __slots__ = (
        "source", "destination", "_dedup_key", "_seen", "_deliver",
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
        **link_options: Any,
    ) -> None:
        super().__init__(engine, latency_model, name=name, **link_options)
        self.source = source
        self.destination = destination
        self._dedup_key = dedup_key
        # A channel without a dedup key keeps no seen-log.
        self._seen: Optional[KeyLog] = None if dedup_key is None else KeyLog()
        self._deliver = (  # type: ignore[method-assign]
            self._deliver_all if dedup_key is None else self._deliver_once
        )
        # At-least-once duplication state (fault injection).
        self._dup_probability = 0.0
        self._dup_seed = 0
        self._dup_index = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_duplicated = 0
        self._messages_deduped = 0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_all(self, message: Any, send_time: float, arrival_time: float) -> None:
        self._delivered += 1
        self._messages_delivered += 1
        self.handler(message, send_time, arrival_time)  # type: ignore[misc]

    def _deliver_once(self, message: Any, send_time: float, arrival_time: float) -> None:
        self._delivered += 1
        self._accept(message, send_time, arrival_time)

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
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Any, send_time: Optional[float] = None) -> float:
        """Send ``message``; returns the (primary copy's) arrival time.

        While duplication is active, a seeded per-index coin decides
        whether an extra copy rides along at the same send time.  The
        duplication state is read here, per message — which is why
        senders hold this bound method and never a bare link send:
        a :meth:`start_duplication` mid-run must reach the very next
        message.
        """
        self._messages_sent += 1
        arrival = Link.send(self, message, send_time)
        if self._dup_probability:
            index = self._dup_index
            self._dup_index += 1
            if stable_bool(self._dup_probability, self._dup_seed, index):
                self._messages_duplicated += 1
                Link.send(self, message, send_time)
        return arrival

    # ------------------------------------------------------------------
    # Fault injection (partition and burst loss are the link's)
    # ------------------------------------------------------------------
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
        """Per-channel odometers, mirroring the link-level counters."""
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
        source: str = "",
        destination: str = "",
        dedup_key: Optional[MessageKey] = None,
        handler: Optional[DeliveryHandler] = None,
        **link_options: Any,
    ) -> Channel:
        """Build and register the channel ``name``; names are unique.

        ``link_options`` are :class:`~repro.net.link.Link`'s (``priority``,
        ``loss_probability``, ``recovery_delay``, ``seed``,
        ``loss_handler``)."""
        if name in self._channels:
            raise ValueError(f"duplicate channel name: {name!r}")
        channel = Channel(
            name, engine, latency_model, source=source, destination=destination,
            dedup_key=dedup_key, **link_options,
        )
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
