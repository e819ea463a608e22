"""The matching engine (ME) behind the CES.

The ME consumes trades strictly in the order decided upstream (FCFS
sequencer on-premise; ordering buffer under DBO) and executes them on the
limit order book.  Crucially — and this is a design goal of the paper —
the ME is *fairness-agnostic*: it has no notion of delivery clocks,
response times, or network latency.  The order of ``submit`` calls fully
determines the market outcome, which is what makes fair *ordering*
upstream sufficient for fair *outcomes*.

The engine records its intake as typed columns — per position the
forwarding time ``F(i, a)``, the participant slot and the ``trade_seq``;
per participant the final ordinal position ``O(i, a)`` by ``trade_seq`` —
the two quantities every fairness definition in §3 is written in terms
of, with no per-trade object.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.exchange.messages import Execution, TradeOrder
from repro.exchange.order_book import LimitOrderBook
from repro.metrics.records import UNFORWARDED

__all__ = ["MatchingEngine"]


class MatchingEngine:
    """Executes trades against a limit order book in arrival order.

    Parameters
    ----------
    book:
        The order book; a fresh one is created when omitted.
    execute:
        When false, trades are sequenced and recorded but not crossed
        against the book.  Fairness experiments (which study *ordering*)
        run with ``execute=False`` for speed; market-level examples turn
        execution on.
    """

    def __init__(
        self,
        book: Optional[LimitOrderBook] = None,
        execute: bool = True,
    ) -> None:
        self.book = book if book is not None else LimitOrderBook()
        self.execute = execute
        # The intake, by position: ``F``, participant slot, ``trade_seq``.
        self.forward_times = array("d")
        self.intake_slots = array("i")
        self.intake_seqs = array("q")
        # Per participant slot (first forwarded first): ``O`` by
        # ``trade_seq``, :data:`UNFORWARDED` for a trade not forwarded.
        self.mp_ids: List[str] = []
        self.positions: List[array] = []
        self._slots: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def submit(self, order: TradeOrder, forward_time: float) -> List[Execution]:
        """Accept the next trade in the final ordering.

        Returns the executions produced (empty when ``execute`` is off).
        """
        mp_id, seq = order.mp_id, order.trade_seq
        slot = self._slots.get(mp_id)
        if slot is None:
            slot = self._slots[mp_id] = len(self.mp_ids)
            self.mp_ids.append(mp_id)
            self.positions.append(array("q"))
        positions = self.positions[slot]
        position = len(self.forward_times)
        if seq == len(positions):
            positions.append(position)
        elif seq > len(positions):
            positions.extend(array("q", [UNFORWARDED]) * (seq - len(positions)))
            positions.append(position)
        elif seq < 0:
            raise ValueError(f"trade {order.key} has a negative trade_seq")
        elif positions[seq] != UNFORWARDED:
            raise ValueError(f"trade {order.key} forwarded to the matching engine twice")
        else:
            positions[seq] = position
        self.forward_times.append(forward_time)
        self.intake_slots.append(slot)
        self.intake_seqs.append(seq)
        if self.execute:
            return self.book.submit(order, match_time=forward_time)
        return []

    # ------------------------------------------------------------------
    # The O(i, a) / F(i, a) accessors used by every fairness metric.
    # ------------------------------------------------------------------
    def position_of(self, key: Tuple[str, int]) -> Optional[int]:
        """``O(i, a)``: the trade's ordinal, or ``None`` if never forwarded."""
        mp_id, seq = key
        positions = self.positions_of(mp_id)
        forwarded = 0 <= seq < len(positions) and positions[seq] != UNFORWARDED
        return positions[seq] if forwarded else None

    def forward_time_of(self, key: Tuple[str, int]) -> Optional[float]:
        """``F(i, a)``: when the trade reached the ME, or ``None``."""
        return None if (position := self.position_of(key)) is None else self.forward_times[position]

    def positions_of(self, mp_id: str) -> array:
        """``O`` by ``trade_seq`` for one participant (empty if it had no
        trade forwarded): may end before its last trade submitted."""
        slot = self._slots.get(mp_id)
        return array("q") if slot is None else self.positions[slot]

    @property
    def trade_count(self) -> int:
        return len(self.forward_times)

    def ordering(self) -> List[Tuple[str, int]]:
        """Final trade ordering as a list of ``(mp_id, trade_seq)`` keys."""
        return [(self.mp_ids[slot], seq) for slot, seq in zip(self.intake_slots, self.intake_seqs)]
