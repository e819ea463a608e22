"""The message plane: named, addressable, faultable channels.

The paper's guarantees (§4.1.3, Appendix E) are stated over a network in
which *every* message — market data, trades, heartbeats, acks — can be
delayed, dropped, or duplicated.  Historically only the market-data and
trade paths travelled over real :class:`~repro.net.link.Link` objects;
control traffic (OB→RB acks, shard↔master forwarding, standby adoption,
gateway egress) was wired through ad-hoc callbacks that faults could not
reach.  This module closes that gap:

* a :class:`Channel` is one named unidirectional message path backed by a
  ``Link`` and its latency model.  It adds per-channel odometers
  (sent/delivered/dropped/duplicated/deduped), optional **at-least-once
  duplication** (each message is delivered a second time with a seeded
  per-index probability — the classic behaviour of retry-based
  transports), and an optional **receiver-side dedup hook** keyed by a
  caller-supplied message key;
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

from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Set

from repro.net.latency import DegradedLatency, LatencyModel
from repro.net.link import DeliveryHandler, Link, LossyLink
from repro.sim.randomness import stable_bool

__all__ = ["Channel", "Transport"]

# Maps a message to a hashable identity for receiver-side dedup.
MessageKey = Callable[[Any], Hashable]


class Channel:
    """One named unidirectional message path over a FIFO link.

    Parameters
    ----------
    name:
        Unique channel name (the fault injector's address).
    link:
        The underlying :class:`~repro.net.link.Link` (or
        :class:`~repro.net.link.LossyLink`) carrying the messages.
    source / destination:
        Endpoint labels, for reports and the architecture table.
    dedup_key:
        Optional ``message -> hashable`` accessor.  When set, the channel
        drops (and counts) any delivery whose key was already seen —
        receiver-side protection for payloads whose consumer cannot
        tolerate at-least-once delivery.  Out-of-band loss recovery
        (``loss_handler``) bypasses the hook by design: recovered packets
        are first deliveries, merely late.
    """

    def __init__(
        self,
        name: str,
        link: Link,
        source: str = "",
        destination: str = "",
        dedup_key: Optional[MessageKey] = None,
    ) -> None:
        self.name = name
        self.link = link
        self.source = source
        self.destination = destination
        self._dedup_key = dedup_key
        self._handler: Optional[DeliveryHandler] = None
        self._seen: Set[Hashable] = set()
        # At-least-once duplication state (fault injection).
        self._dup_probability = 0.0
        self._dup_seed = 0
        self._dup_index = 0
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_duplicated = 0
        self._messages_deduped = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def connect(self, handler: DeliveryHandler) -> None:
        """Attach the receive handler (behind the dedup hook, if any)."""
        self._handler = handler
        link = self.link
        link.connect(self._on_delivery)
        if self._dedup_key is None:
            # Dedup-free channel: fold the link and channel delivery
            # frames into one closure on the arrival path.  Both
            # odometers stay exact, and the handler is read through the
            # channel so a later re-connect takes effect.
            def fused_delivery(
                message: Any,
                send_time: float,
                arrival_time: float,
                _ch: "Channel" = self,
                _link: Link = link,
            ) -> None:
                _link._delivered += 1
                _ch._messages_delivered += 1
                _ch._handler(message, send_time, arrival_time)  # type: ignore[misc]

            link._deliver_target = fused_delivery

    def set_loss_handler(self, handler: DeliveryHandler) -> None:
        """Attach the out-of-band recovery target (Appendix D).

        A no-op on loss-free links, so call sites stay uniform across
        lossless and lossy network specs.
        """
        if isinstance(self.link, LossyLink):
            self.link.loss_handler = handler

    def _on_delivery(self, message: Any, send_time: float, arrival_time: float) -> None:
        if self._handler is None:  # pragma: no cover - connect() precedes sends
            raise RuntimeError(f"channel {self.name!r} has no receive handler")
        if self._dedup_key is not None:
            key = self._dedup_key(message)
            if key in self._seen:
                self._messages_deduped += 1
                return
            self._seen.add(key)
        self._messages_delivered += 1
        self._handler(message, send_time, arrival_time)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Any, send_time: Optional[float] = None) -> float:
        """Send ``message``; returns the (primary copy's) arrival time.

        While duplication is active, a seeded per-index coin decides
        whether an extra copy rides along at the same send time.  The
        duplication state is read here, per message — which is why
        senders hold this bound method and never a pre-fused link send:
        a :meth:`start_duplication` mid-run must reach the very next
        message.
        """
        self._messages_sent += 1
        arrival = self.link.send(message, send_time)
        if self._dup_probability:
            index = self._dup_index
            self._dup_index += 1
            if stable_bool(self._dup_probability, self._dup_seed, index):
                self._messages_duplicated += 1
                self.link.send(message, send_time)
        return arrival

    def arrival_time_for(self, send_time: float) -> float:
        """Pure query: arrival a packet sent at ``send_time`` would see."""
        return self.link.arrival_time_for(send_time)

    # ------------------------------------------------------------------
    # Fault injection (uniform surface for the injector)
    # ------------------------------------------------------------------
    def set_blackhole(self, active: bool) -> None:
        """Partition this channel: while active, every message vanishes."""
        self.link.set_blackhole(active)

    def start_loss_burst(self, loss_probability: float, seed: int = 0) -> None:
        """Drop each message with this probability (no recovery)."""
        self.link.start_loss_burst(loss_probability, seed=seed)

    def stop_loss_burst(self) -> None:
        self.link.stop_loss_burst()

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

        The link's latency model is wrapped in a
        :class:`~repro.net.latency.DegradedLatency` on first use; the
        wrapper is transparent while healed, so wrapping alone never
        perturbs a run.
        """
        model: LatencyModel = self.link.latency_model
        if not isinstance(model, DegradedLatency):
            model = DegradedLatency(model)
            self.link.latency_model = model
        model.set_degradation(extra=extra, factor=factor)

    def clear_degradation(self) -> None:
        model = self.link.latency_model
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
        return self.link.packets_blackholed + self.link.packets_dropped_in_burst

    def counters(self) -> Dict[str, float]:
        """Per-channel odometers, mirroring the link-level counters."""
        out: Dict[str, float] = {
            "sent": float(self._messages_sent),
            "delivered": float(self._messages_delivered),
            "dropped": float(self.messages_dropped),
            "duplicated": float(self._messages_duplicated),
            "deduped": float(self._messages_deduped),
        }
        if isinstance(self.link, LossyLink):
            out["lost"] = float(self.link.packets_lost)
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
        link: Link,
        source: str = "",
        destination: str = "",
        dedup_key: Optional[MessageKey] = None,
        handler: Optional[DeliveryHandler] = None,
    ) -> Channel:
        """Register ``link`` as the channel ``name``; names are unique."""
        if name in self._channels:
            raise ValueError(f"duplicate channel name: {name!r}")
        channel = Channel(
            name, link, source=source, destination=destination, dedup_key=dedup_key
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
