"""Dense, exact containers for what a run keeps per trade and per point.

A run remembers three kinds of facts: which trades a releaser has
released, which messages a receiver has already seen (delivery is
at-least-once, Appendix D), and each participant's per-point times
``D(i, x)`` (§4.1).  Trade keys are ``(mp_id, seq)`` pairs and point ids
count up from 0, so both are dense; these containers store them densely
and keep the semantics of the hash containers they replace.

* :class:`KeyLog` is an exact ``set`` of keys.  ``int`` keys and
  ``(group, int)`` keys live as one contiguous run ``[lo, hi)`` per
  group, plus an overflow set that exists only while some key arrived
  out of order; a key that closes a gap pulls its successors back out
  of the overflow.  Any other key type turns the log into a plain set,
  so ``True`` / ``1`` / ``1.0`` and ``(None, 5)`` / ``5`` compare
  exactly as they do in a ``set``.

  The bound is on gaps, not on keys: a key that never arrives pins its
  group's run, and every later key of that group stays in the overflow.
  A trade lost without retransmission (``RetransmitPolicy``) does that
  to its participant's release-log group, and a batch a partition
  swallows does it to its channel's dedup log.

* :class:`PointSeries` is a read-only ``Mapping[int, float]`` over an
  ``array('d')`` indexed by point id, NaN marking a point never
  recorded.  Recorders write :attr:`PointSeries.times` inline (after
  :func:`grow`), so the per-point cost is one C-level store.

Per entry: a run key costs nothing (a run is two ints per group), an
overflow key one set slot plus the key object, a point time 8 bytes.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import repeat
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set

__all__ = ["KeyLog", "PointSeries", "grow"]

# The group of bare ``int`` keys: private, so no tuple key can name it.
_BARE = object()

_NAN = float("nan")


class KeyLog:
    """An exact set of keys, stored as one run of ints per group.

    Supports ``in``, ``len``, iteration, :meth:`update` and the
    test-and-record :meth:`add_new`, which costs one call per arrival.
    """

    __slots__ = ("_runs", "_overflow", "_len", "_set")

    def __init__(self) -> None:
        # group -> [lo, hi]: every int in range(lo, hi) is in the log.
        self._runs: Dict[Any, List[int]] = {}
        # Keys outside their group's run; None while there are none.
        self._overflow: Optional[Set[Hashable]] = None
        self._len = 0
        # A plain set once a key of another type arrived; then the only
        # storage.
        self._set: Optional[Set[Hashable]] = None

    # ------------------------------------------------------------------
    def add_new(self, key: Hashable) -> bool:
        """Record ``key``; ``True`` if it was not in the log yet."""
        if self._set is not None:
            seen = self._set
            if key in seen:
                return False
            seen.add(key)
            return True
        if type(key) is tuple:
            if len(key) != 2 or type(key[1]) is not int:
                return self._add_to_set(key)
            group, n = key
        elif type(key) is int:
            group, n = _BARE, key
        else:
            return self._add_to_set(key)
        run = self._runs.get(group)
        if run is None:
            self._runs[group] = [n, n + 1]
        elif n == run[1]:
            # The common case: the next key of its group.
            run[1] = n + 1 if self._overflow is None else self._absorb(group, n + 1, 1)
        elif n == run[0] - 1:
            run[0] = n if self._overflow is None else self._absorb(group, n - 1, -1) + 1
        elif run[0] <= n < run[1]:
            return False
        else:
            overflow = self._overflow
            if overflow is None:
                overflow = self._overflow = set()
            elif key in overflow:
                return False
            overflow.add(key)
        self._len += 1
        return True

    def _absorb(self, group: Any, n: int, step: int) -> int:
        """Move ``n``, ``n + step``, ... from the overflow into the run;
        return the first one the overflow lacks."""
        overflow = self._overflow
        assert overflow is not None
        while True:
            key = n if group is _BARE else (group, n)
            if key not in overflow:
                break
            overflow.remove(key)
            n += step
        if not overflow:
            # A set never shrinks its table: drop it, not just empty it.
            self._overflow = None
        return n

    def _add_to_set(self, key: Hashable) -> bool:
        """The first key of another type: become a plain set."""
        seen = set(self)
        self._set = seen
        self._runs = {}
        self._overflow = None
        self._len = 0
        if key in seen:
            return False
        seen.add(key)
        return True

    def update(self, keys: Iterable[Hashable]) -> None:
        add_new = self.add_new
        for key in keys:
            add_new(key)

    # ------------------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        if self._set is not None:
            return key in self._set
        if type(key) is tuple and len(key) == 2 and type(key[1]) is int:
            group, n = key
        elif type(key) is int:
            group, n = _BARE, key
        else:
            # A key of another type can still equal a stored one
            # (``True == 1``, ``(g, 2.0) == (g, 2)``): ask a real set.
            hash(key)
            return key in set(self)
        run = self._runs.get(group)
        if run is not None and run[0] <= n < run[1]:
            return True
        overflow = self._overflow
        return overflow is not None and key in overflow

    def __len__(self) -> int:
        return len(self._set) if self._set is not None else self._len

    def __iter__(self) -> Iterator[Hashable]:
        if self._set is not None:
            yield from self._set
            return
        for group, (lo, hi) in self._runs.items():
            if group is _BARE:
                yield from range(lo, hi)
            else:
                for n in range(lo, hi):
                    yield (group, n)
        if self._overflow is not None:
            yield from self._overflow

    def __repr__(self) -> str:
        return f"KeyLog({len(self)} keys)"


def grow(times: "array[float]", point_id: int) -> None:
    """Extend ``times`` with NaN so that ``point_id`` indexes it.

    A quarter more than needed, so a recorder that meets point ids in
    order calls this O(log n) times."""
    size = max(point_id + 1, len(times) + (len(times) >> 2) + 8)
    times.extend(repeat(_NAN, size - len(times)))


def _index(key: object) -> Optional[int]:
    """The non-negative int ``key`` equals, as a dict lookup sees it."""
    if type(key) is int:
        return key if key >= 0 else None
    try:
        n = int(key)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        return None
    return n if n >= 0 and n == key and hash(n) == hash(key) else None


class PointSeries(Mapping[int, float]):
    """A read-only ``Mapping[int, float]`` over one time per point id.

    ``times[x]`` is point ``x``'s time, NaN if it was never recorded;
    iteration is in ascending point id.
    """

    __slots__ = ("times",)

    def __init__(self, times: Optional["array[float]"] = None) -> None:
        self.times = array("d") if times is None else times

    def __getitem__(self, point_id: object) -> float:
        index = _index(point_id)
        if index is not None and index < len(self.times):
            value = self.times[index]
            if value == value:
                return value
        raise KeyError(point_id)

    def get(self, point_id: object, default: Any = None) -> Any:
        # The Max-RTT bound reads one point per participant per trade:
        # an in-range int id skips the generic lookup.
        times = self.times
        if type(point_id) is int and 0 <= point_id < len(times):
            value = times[point_id]
            return value if value == value else default
        try:
            return self[point_id]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[int]:
        return (x for x, value in enumerate(self.times) if value == value)

    def __len__(self) -> int:
        return sum(1 for value in self.times if value == value)

    def __repr__(self) -> str:
        return f"PointSeries({dict(self.items())!r})"

