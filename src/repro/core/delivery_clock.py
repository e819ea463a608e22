"""Delivery clocks — the paper's central abstraction (§4.1.1).

A delivery clock tracks time *relative to market-data delivery*.  Its
reading is the lexicographic tuple

    ``DC = ⟨ld, elapsed⟩``

where ``ld`` is the id of the latest data point delivered to the
participant and ``elapsed`` is the local time since that delivery.  Both
components are measurable locally at the release buffer with nothing but
an interval timer — no clock synchronization (Challenge 1).

Two properties carry all of DBO's guarantees:

* **Monotonicity** — the reading never decreases as real time advances or
  data is delivered, so causality (Eq. 4) holds trivially and delaying a
  trade can never help a participant.
* **Response-time tracking** — when the trigger point is the latest
  delivered point (which batching + pacing *force* for any trade with
  response time < δ), the second component equals the trade's response
  time, so ordering by DC orders by response time.

:class:`DeliveryClockStamp` is the immutable reading placed on trades and
heartbeats; :class:`DeliveryClock` is the mutable tracker owned by a
release buffer.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Optional, Tuple

from repro.sim.clocks import Clock, PerfectClock

__all__ = ["DeliveryClockStamp", "DeliveryClock", "ClockNotStartedError"]


class ClockNotStartedError(RuntimeError):
    """Reading a delivery clock before any data point was delivered."""


class DeliveryClockStamp:
    """An immutable delivery-clock reading ``⟨last_point_id, elapsed⟩``.

    Stamps are ordered lexicographically — first by the id of the last
    delivered point, then by the locally measured elapsed time — which is
    exactly the trade ordering DBO enforces (Eq. 6).

    ``key`` is that order as a plain tuple, built once per stamp: the
    buffers' heaps, watermark maps and minima compare keys (one C-level
    tuple compare), and every comparison operator here is one frame over
    them.  Equality and hashing are the key's, between stamps only.
    """

    __slots__ = ("last_point_id", "elapsed", "key")

    last_point_id: int
    elapsed: float
    key: Tuple[int, float]

    def __init__(self, last_point_id: int, elapsed: float) -> None:
        if last_point_id < 0:
            raise ValueError("last_point_id must be non-negative")
        if elapsed < 0:
            raise ValueError(f"elapsed must be non-negative, got {elapsed}")
        _set_point(self, last_point_id)
        _set_elapsed(self, elapsed)
        _set_key(self, (last_point_id, elapsed))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[type, Tuple[int, float]]:
        return (DeliveryClockStamp, (self.last_point_id, self.elapsed))

    def as_tuple(self) -> Tuple[int, float]:
        return self.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryClockStamp):
            return NotImplemented
        return self.key == other.key

    def __lt__(self, other: "DeliveryClockStamp") -> bool:
        if not isinstance(other, DeliveryClockStamp):
            return NotImplemented
        return self.key < other.key

    def __le__(self, other: "DeliveryClockStamp") -> bool:
        if not isinstance(other, DeliveryClockStamp):
            return NotImplemented
        return self.key <= other.key

    def __gt__(self, other: "DeliveryClockStamp") -> bool:
        if not isinstance(other, DeliveryClockStamp):
            return NotImplemented
        return self.key > other.key

    def __ge__(self, other: "DeliveryClockStamp") -> bool:
        if not isinstance(other, DeliveryClockStamp):
            return NotImplemented
        return self.key >= other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"⟨{self.last_point_id}, {self.elapsed:.3f}⟩"


# The slot setters, hoisted: ``__setattr__`` refuses every assignment, so
# stamps are filled through the slot descriptors — also how
# :meth:`DeliveryClock.read` builds its already-validated stamps without
# an ``__init__`` frame.
_new = object.__new__
_set_point = DeliveryClockStamp.__dict__["last_point_id"].__set__
_set_elapsed = DeliveryClockStamp.__dict__["elapsed"].__set__
_set_key = DeliveryClockStamp.__dict__["key"].__set__


class DeliveryClock:
    """The mutable delivery clock maintained by a release buffer.

    Parameters
    ----------
    local_clock:
        The RB's local clock.  Only *intervals* of this clock are used, so
        its offset is irrelevant and its drift enters only multiplicatively
        (the paper's negligible-drift assumption).

    Examples
    --------
    >>> clock = DeliveryClock()
    >>> clock.on_delivery(point_id=0, true_time=100.0)
    >>> clock.read(true_time=107.5)
    ⟨0, 7.500⟩
    >>> clock.on_delivery(point_id=3, true_time=120.0)  # batch of points 1-3
    >>> clock.read(true_time=120.0)
    ⟨3, 0.000⟩
    """

    def __init__(self, local_clock: Optional[Clock] = None) -> None:
        self.local_clock = local_clock if local_clock is not None else PerfectClock()
        self._last_point_id: Optional[int] = None
        self._last_delivery_local: Optional[float] = None

    @property
    def started(self) -> bool:
        """Whether at least one data point has been delivered."""
        return self._last_point_id is not None

    @property
    def last_point_id(self) -> Optional[int]:
        """Id of the latest delivered point (``ld``), or ``None``."""
        return self._last_point_id

    def on_delivery(self, point_id: int, true_time: float) -> None:
        """Advance the clock: point ``point_id`` was delivered now.

        Deliveries must advance the point id (in-order delivery, §3);
        retransmitted (recovered) points must *not* be passed here — the
        paper's Appendix D rule is that recovered data does not update the
        delivery clock.
        """
        if self._last_point_id is not None and point_id <= self._last_point_id:
            raise ValueError(
                f"delivery of point {point_id} does not advance the clock "
                f"(last delivered: {self._last_point_id})"
            )
        local = self.local_clock.now(true_time)
        if self._last_delivery_local is not None and local < self._last_delivery_local:
            raise ValueError("local clock went backwards across deliveries")
        self._last_point_id = point_id
        self._last_delivery_local = local

    def read(self, true_time: float) -> DeliveryClockStamp:
        """Current reading ``⟨ld, elapsed⟩`` at ``true_time``.

        Raises
        ------
        ClockNotStartedError
            Before the first delivery — a participant cannot trade before
            it has ever received market data.
        """
        last_point_id = self._last_point_id
        last_delivery_local = self._last_delivery_local
        if last_point_id is None or last_delivery_local is None:
            raise ClockNotStartedError("no market data delivered yet")
        elapsed = self.local_clock.now(true_time) - last_delivery_local
        if elapsed < 0:
            raise ValueError(
                f"reading the clock before the last delivery (elapsed={elapsed})"
            )
        # Hot path: a read happens per heartbeat and per trade tag.  The
        # components are already validated (non-negative id invariant,
        # elapsed checked above), so skip __init__ and fill the slots.
        stamp = _new(DeliveryClockStamp)
        _set_point(stamp, last_point_id)
        _set_elapsed(stamp, elapsed)
        _set_key(stamp, (last_point_id, elapsed))
        return stamp
