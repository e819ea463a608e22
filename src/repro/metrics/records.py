"""Ground-truth records produced by a scheme run.

Every deployment (DBO, Direct, CloudEx, FBA, Libra) reduces its run to a
:class:`RunResult` holding the event timestamps of Table 1 — ``G(x)``,
``D(i,x)``, ``S(i,a)``, ``F(i,a)``, ``O(i,a)`` — plus the raw network
timestamps needed for the Max-RTT bound of Theorem 3.  All metrics and
every benchmark table are pure functions of this record, so schemes are
compared on identical footing.

A run's trades are a :class:`TradeTable`: one typed column per field, so a
finished run holds no per-trade object.  The metrics read the columns; a
:class:`TradeRecord` is built only when a caller indexes or iterates the
table.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = ["TradeRecord", "TradeTable", "RunResult", "UNFORWARDED"]

# The position of a trade that never reached the matching engine, in the
# table and in the matching engine's own columns; its forward time is NaN.
UNFORWARDED = -1


@dataclass(slots=True)
class TradeRecord:
    """Per-trade ground truth joined with the scheme's output.

    ``forward_time`` (``F``) and ``position`` (``O``) are ``None`` for
    trades still in flight when the run ended; metrics skip those.
    """

    mp_id: str
    trade_seq: int
    trigger_point: int
    response_time: float
    submission_time: float
    forward_time: Optional[float] = None
    position: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.mp_id, self.trade_seq)

    @property
    def completed(self) -> bool:
        return self.forward_time is not None and self.position is not None


# A record's fields in column order.
_FIELDS = attrgetter(*(f.name for f in fields(TradeRecord)))


class TradeTable(Sequence):
    """A run's trades as columns: a read-only ``Sequence[TradeRecord]``.

    Row ``r`` is the trade of participant ``mp_ids[mp_slots[r]]`` with
    ``trade_seqs[r]``; ``forward_times[r]`` is NaN and ``positions[r]`` is
    :data:`UNFORWARDED` where the record says ``None``.  ``intake`` lists
    the rows that hold a position, in position order (ties in row order).
    A :class:`TradeRecord` is built only when a row is indexed or iterated.
    """

    __slots__ = (
        "mp_ids", "mp_slots", "trade_seqs", "trigger_points", "response_times",
        "submission_times", "forward_times", "positions", "intake",
    )

    def __init__(
        self,
        mp_ids: Sequence,
        mp_slots: array,
        trade_seqs: array,
        trigger_points: array,
        response_times: array,
        submission_times: array,
        forward_times: array,
        positions: array,
        intake: array,
    ) -> None:
        self.mp_ids = tuple(mp_ids)
        self.mp_slots = mp_slots
        self.trade_seqs = trade_seqs
        self.trigger_points = trigger_points
        self.response_times = response_times
        self.submission_times = submission_times
        self.forward_times = forward_times
        self.positions = positions
        self.intake = intake

    @classmethod
    def from_records(cls, records: Iterable[TradeRecord]) -> "TradeTable":
        """The table of ``records``, in their order."""
        columns = list(zip(*map(_FIELDS, records))) or [()] * 7
        slots = {mp_id: slot for slot, mp_id in enumerate(dict.fromkeys(columns[0]))}
        forward_times = array("d", (math.nan if f is None else f for f in columns[5]))
        positions = array("q", (UNFORWARDED if p is None else p for p in columns[6]))
        intake = sorted((r for r, p in enumerate(positions) if p != UNFORWARDED), key=positions.__getitem__)
        return cls(
            list(slots), array("i", map(slots.__getitem__, columns[0])),
            *map(array, "qqdd", columns[1:5]), forward_times, positions, array("q", intake),
        )

    def record(self, row: int) -> TradeRecord:
        """Row ``row`` as a :class:`TradeRecord`."""
        forward_time = self.forward_times[row]
        position = self.positions[row]
        return TradeRecord(
            self.mp_ids[self.mp_slots[row]],
            self.trade_seqs[row],
            self.trigger_points[row],
            self.response_times[row],
            self.submission_times[row],
            None if math.isnan(forward_time) else forward_time,
            None if position == UNFORWARDED else position,
        )

    def __len__(self) -> int:
        return len(self.trade_seqs)

    def __getitem__(self, index: Union[int, slice]) -> Union[TradeRecord, List[TradeRecord]]:
        rows = range(len(self))[index]
        return list(map(self.record, rows)) if isinstance(rows, range) else self.record(rows)

    def __iter__(self) -> Iterator[TradeRecord]:
        return map(self.record, range(len(self)))

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass
class RunResult:
    """Everything a metric needs from one scheme run.

    Attributes
    ----------
    scheme:
        Scheme label ("dbo", "direct", "cloudex", ...).
    trades:
        One row per submitted trade.  A list of :class:`TradeRecord` is
        converted to a :class:`TradeTable` once, at construction.
    generation_times:
        ``G(x)`` per point id.
    network_send_times:
        When the packet carrying point ``x`` entered the network (equals
        ``G(x)`` for unbatched schemes; the batch close time under DBO).
    raw_arrivals:
        Per participant, per point: raw network arrival time at the RB /
        MP boundary — before any release-buffer hold.  These are the
        "packet timestamps from the experiment trace" the paper uses to
        compute the Max-RTT bound.  A deployment hands over its
        recorders' :class:`~repro.sim.dense.PointSeries` (8 bytes per
        point).
    delivery_times:
        ``D(i, x)``: when the point was actually delivered to the MP, in
        the same form.
    reverse_latency_at:
        ``(mp_id, t) -> one-way MP→CES latency for a packet sent at t``;
        lets the bound evaluate hypothetical response packets.
    duration:
        Length of the generation window (µs).
    counters:
        Scheme-specific odometers (heartbeats processed, max queue depth,
        stragglers, ...), for reports and ablation benchmarks.
    channels:
        Per-channel message-plane odometers: ``{channel name: {sent,
        delivered, dropped, duplicated, deduped, [lost]}}`` from the
        deployment's :class:`~repro.net.transport.Transport`.
    """

    scheme: str
    trades: TradeTable
    generation_times: Dict[int, float]
    network_send_times: Dict[int, float]
    raw_arrivals: Dict[str, Mapping[int, float]]
    delivery_times: Dict[str, Mapping[int, float]]
    reverse_latency_at: Optional[Callable[[str, float], float]] = None
    duration: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    channels: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.trades, TradeTable):
            self.trades = TradeTable.from_records(self.trades)

    # ------------------------------------------------------------------
    @property
    def participant_ids(self) -> List[str]:
        return sorted(self.raw_arrivals)

    @cached_property
    def completed_rows(self) -> array:
        """The rows of the trades that reached the matching engine, built
        once: a result's trades are final when it is assembled."""
        trades = self.trades
        return array(
            "q",
            (
                row
                for row, (forward_time, position) in enumerate(
                    zip(trades.forward_times, trades.positions)
                )
                if position != UNFORWARDED and not math.isnan(forward_time)
            ),
        )

    @property
    def completed_trades(self) -> List[TradeRecord]:
        """The trades that reached the matching engine, as records."""
        return [self.trades.record(row) for row in self.completed_rows]

    def rows_by_trigger(self) -> Dict[int, array]:
        """The completed rows grouped into speed races by trigger point."""
        triggers = self.trades.trigger_points
        races: Dict[int, array] = {}
        for row in self.completed_rows:
            race = races.get(triggers[row])
            if race is None:
                race = races[triggers[row]] = array("q")
            race.append(row)
        return races

    def trades_by_trigger(self) -> Dict[int, List[TradeRecord]]:
        """Group completed trades into speed races by trigger point."""
        record, triggers = self.trades.record, self.trades.trigger_points
        races: Dict[int, List[TradeRecord]] = {}
        for row in self.completed_rows:
            races.setdefault(triggers[row], []).append(record(row))
        return races

    def completion_ratio(self) -> float:
        """Fraction of submitted trades that reached the matching engine."""
        if not self.trades:
            return 1.0
        return len(self.completed_rows) / len(self.trades)
