"""Multicast fan-out for market-data distribution.

Cloud datacenters do not offer in-network multicast (§5.2), so the CES
unicasts its market-data stream to every release buffer over independent
channels, each with its own latency process — which is exactly the source of
the unfairness DBO corrects.  :class:`MulticastGroup` bundles the per-
destination channels behind a single ``publish`` call.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.net.transport import Channel

__all__ = ["MulticastGroup"]


class MulticastGroup:
    """A named set of unicast member channels sharing a publisher.

    Examples
    --------
    >>> from repro.sim import EventEngine
    >>> from repro.net.latency import ConstantLatency
    >>> from repro.net.transport import Channel
    >>> engine = EventEngine()
    >>> group = MulticastGroup()
    >>> got = []
    >>> channel = Channel("fwd-mp0", engine, ConstantLatency(5.0),
    ...                   handler=lambda m, s, a: got.append((m, a)))
    >>> group.add_member("mp0", channel)
    >>> _ = group.publish("tick")
    >>> engine.run()
    >>> got
    [('tick', 5.0)]
    """

    def __init__(self) -> None:
        self._members: Dict[str, Channel] = {}

    def add_member(self, member_id: str, channel: Channel) -> None:
        """Register a destination; ``member_id`` must be unique."""
        if member_id in self._members:
            raise ValueError(f"duplicate multicast member: {member_id!r}")
        self._members[member_id] = channel

    def publish(self, message: Any, send_time: Optional[float] = None) -> Dict[str, float]:
        """Send ``message`` on every member channel.

        Returns the scheduled arrival time per member — the raw
        ``D(i, x)`` values before any release-buffer pacing.
        """
        if not self._members:
            raise RuntimeError("multicast group has no members")
        return {
            member_id: channel.send(message, send_time=send_time)
            for member_id, channel in self._members.items()
        }

    def broadcast(self, message: Any, send_time: Optional[float] = None) -> None:
        """Fan ``message`` out to every member, discarding arrival times.

        The hot-path twin of :meth:`publish`: batch publication runs once
        per batcher tick and never reads the per-member arrival dict, so
        this variant skips building it (N entries per call at N members).
        """
        if not self._members:
            raise RuntimeError("multicast group has no members")
        for channel in self._members.values():
            channel.send(message, send_time=send_time)
