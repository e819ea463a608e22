"""The matching engine (ME) behind the CES.

The ME consumes trades strictly in the order decided upstream (FCFS
sequencer on-premise; ordering buffer under DBO) and executes them on the
limit order book.  Crucially — and this is a design goal of the paper —
the ME is *fairness-agnostic*: it has no notion of delivery clocks,
response times, or network latency.  The order of ``submit`` calls fully
determines the market outcome, which is what makes fair *ordering*
upstream sufficient for fair *outcomes*.

The engine records, per trade, the forwarding time ``F(i, a)`` and the
final ordinal position ``O(i, a)`` — the two quantities every fairness
definition in §3 is written in terms of.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exchange.messages import Execution, TradeOrder
from repro.exchange.order_book import LimitOrderBook

__all__ = ["MatchingEngine", "ForwardedTrade"]


@dataclass(frozen=True, slots=True)
class ForwardedTrade:
    """A trade as it crossed the ME boundary.

    Attributes
    ----------
    order:
        The trade order.
    forward_time:
        ``F(i, a)`` — true time the trade was handed to the ME.
    position:
        ``O(i, a)`` — 0-based ordinal of the trade in the ME's intake.
    """

    order: TradeOrder
    forward_time: float
    position: int


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
        on_execution: Optional[Callable[[Execution], None]] = None,
    ) -> None:
        self.book = book if book is not None else LimitOrderBook()
        self.execute = execute
        # Post-trade hook: real exchanges derive their market-data feed
        # from the ME's activity; the CES uses this to publish execution
        # reports back into the data stream.
        self.on_execution = on_execution
        self.forwarded: List[ForwardedTrade] = []
        # key -> its record in ``forwarded``: the one index O and F are
        # read from.
        self._by_key: Dict[Tuple[str, int], ForwardedTrade] = {}

    # ------------------------------------------------------------------
    def submit(self, order: TradeOrder, forward_time: float) -> List[Execution]:
        """Accept the next trade in the final ordering.

        Returns the executions produced (empty when ``execute`` is off).
        """
        key = order.key
        if key in self._by_key:
            raise ValueError(f"trade {key} forwarded to the matching engine twice")
        record = ForwardedTrade(order, forward_time, len(self.forwarded))
        self.forwarded.append(record)
        self._by_key[key] = record
        if self.execute:
            fills = self.book.submit(order, match_time=forward_time)
            if self.on_execution is not None:
                for fill in fills:
                    self.on_execution(fill)
            return fills
        return []

    # ------------------------------------------------------------------
    # The O(i, a) / F(i, a) accessors used by every fairness metric.
    # ------------------------------------------------------------------
    def position_of(self, key: Tuple[str, int]) -> Optional[int]:
        """``O(i, a)``: the trade's ordinal, or ``None`` if never forwarded."""
        record = self._by_key.get(key)
        return None if record is None else record.position

    def forward_time_of(self, key: Tuple[str, int]) -> Optional[float]:
        """``F(i, a)``: when the trade reached the ME, or ``None``."""
        record = self._by_key.get(key)
        return None if record is None else record.forward_time

    @property
    def trade_count(self) -> int:
        return len(self.forwarded)

    def ordering(self) -> List[Tuple[str, int]]:
        """Final trade ordering as a list of ``(mp_id, trade_seq)`` keys."""
        return [ft.order.key for ft in self.forwarded]
