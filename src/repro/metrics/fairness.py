"""The paper's fairness metric (§6.1) and related checks.

    "For any number of MPs, perfect fairness is achieved when all
    competing trades among all unique pairs of participants are fully
    ordered (from faster to slower).  We define the metric of fairness as
    the ratio of the number of competing trade sets that were ordered
    correctly to the total number of competing trade sets for all unique
    pairs of market participants."

A *competing pair* is two completed trades from different participants
with the same trigger point; it is ordered correctly when the trade with
the smaller response time has the strictly smaller final position ``O``.
Pairs with exactly (bitwise ``==``) equal response times carry no
expectation and are skipped (they have measure zero under the continuous
RT distributions used).  :func:`pairwise_correct` is that definition for
one pair.

Counting
--------
The pairs of a race are *counted*, never enumerated.  Every competing
pair is booked to its **faster** trade, so a race reduces to two numbers
per trade — how many strictly slower competitors it has, and how many of
those hold a larger position:

1. sort the race slowest first;
2. sweep it one tie-group of equal response times at a time, keeping the
   positions of the strictly slower trades already swept in a sorted list:
   a trade's slower competitors are everything swept before its group,
   and the ones ordered correctly against it are found by one ``bisect``
   — members of a tie-group never see each other, which is the tie rule;
3. the sweep ignores ``mp_id``, so for each participant with several
   trades in the race the same sweep over just those trades is subtracted
   (inclusion–exclusion: pairs of different MPs = all pairs − same-MP
   pairs).

:func:`evaluate_fairness` is the sum of those per-trade counts.  A race
of ``n`` trades costs ``O(n log n)`` comparisons (the sort and one
``bisect`` per trade) instead of the ``n(n-1)/2`` pair visits of the
definition.  The sorted-list insert also shifts up to ``n`` machine
words inside C (one ``memmove``); a race already in fair order — the
common case — appends at the end and shifts nothing, and on a shuffled
race a Fenwick tree over position ranks, which shifts nothing either, was
measured slower below n ≈ 20 000 (EXPERIMENTS.md, "Pairwise-fairness
kernel").

Also provided: the causality check of Eq. 4 (a participant's own trades
must be ordered in submission order), the one implementation the
theory module's checker shares.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.records import RunResult, TradeRecord, TradeTable

__all__ = [
    "FairnessReport",
    "evaluate_fairness",
    "causality_violations",
    "causality_inversions",
    "pairwise_correct",
]


@dataclass(frozen=True)
class FairnessReport:
    """Result of the pairwise fairness evaluation."""

    correct_pairs: int
    total_pairs: int
    races: int
    unordered_trades: int

    @property
    def ratio(self) -> float:
        """Fraction of competing pairs ordered correctly (1.0 = perfect).

        Vacuously 1.0 when no pairs competed.
        """
        if self.total_pairs == 0:
            return 1.0
        return self.correct_pairs / self.total_pairs

    @property
    def percent(self) -> float:
        return 100.0 * self.ratio

    def __str__(self) -> str:
        # n/a, not the vacuous 100 %, when no pairs competed.
        percent = f"{self.percent:.2f}%" if self.total_pairs else "n/a"
        return (
            f"fairness {percent} "
            f"({self.correct_pairs}/{self.total_pairs} pairs over {self.races} races)"
        )


def pairwise_correct(a: TradeRecord, b: TradeRecord) -> Optional[bool]:
    """Whether a competing pair is ordered correctly.

    Returns ``None`` when the pair carries no expectation (same MP,
    different trigger, equal response times, or either trade incomplete).
    """
    if a.mp_id == b.mp_id or a.trigger_point != b.trigger_point:
        return None
    if not (a.completed and b.completed):
        return None
    # Exact tie: both competitors drew the same response time, so the pair
    # carries no ordering expectation.  Bitwise equality is the intended
    # semantics here, not a tolerance check.
    if a.response_time == b.response_time:  # dbo: ignore[DBO107]
        return None
    faster, slower = (a, b) if a.response_time < b.response_time else (b, a)
    return faster.position < slower.position


def _sweep(keys: Sequence[Tuple[float, int, int]]) -> Tuple[List[int], List[int]]:
    """Per key of a slowest-first ``(-response_time, -position, mp_slot)``
    list: the pairs it is the faster trade of, the participant ignored.

    Returns ``(correct, total)`` aligned with ``keys``: ``total[i]`` counts
    the keys with a strictly larger response time, ``correct[i]`` those of
    them that also hold a strictly larger position.
    """
    n = len(keys)
    correct = [0] * n
    total = [0] * n
    # Negated positions of the strictly slower trades, ascending: a fairly
    # ordered race inserts at the end.
    slower: List[int] = []
    lo = 0
    while lo < n:
        tied = keys[lo][0]
        hi = lo + 1
        # Bitwise equality is the tie rule of `pairwise_correct`.
        while hi < n and keys[hi][0] == tied:
            hi += 1
        for i in range(lo, hi):
            total[i] = lo
            correct[i] = bisect_left(slower, keys[i][1])
        for i in range(lo, hi):
            insort(slower, keys[i][1])
        lo = hi
    return correct, total


def _faster_trade_counts(trades: TradeTable, race: Sequence[int]) -> Tuple[List[int], List[int]]:
    """One race's competing pairs, each booked to its faster trade.

    ``race`` holds rows of ``trades``.  Returns ``(correct, total)``, one
    entry per trade (in slowest-first order): how many competing pairs it
    is the faster member of — ordered correctly, and in all.
    """
    response_times, positions, slots = trades.response_times, trades.positions, trades.mp_slots
    keys = sorted((-response_times[row], -positions[row], slots[row]) for row in race)
    correct, total = _sweep(keys)
    by_mp: Dict[int, List[int]] = {}
    for index, key in enumerate(keys):
        by_mp.setdefault(key[2], []).append(index)
    if len(by_mp) < len(keys):
        # Same-participant pairs do not compete: take them back out.
        # Integer subtraction commutes; slot order is the explicit order.
        for slot in sorted(by_mp):
            own = by_mp[slot]
            if len(own) > 1:
                own_correct, own_total = _sweep([keys[index] for index in own])
                for index, c, t in zip(own, own_correct, own_total):
                    correct[index] -= c
                    total[index] -= t
    return correct, total


def evaluate_fairness(result: RunResult) -> FairnessReport:
    """Compute the paper's fairness ratio over all speed races in a run."""
    races = result.rows_by_trigger()
    correct = 0
    total = 0
    # Pair counts are commutative integer sums, but iterate races in
    # trigger order anyway — explicit order beats a suppression.
    for trigger in sorted(races):
        race_correct, race_total = _faster_trade_counts(result.trades, races[trigger])
        correct += sum(race_correct)
        total += sum(race_total)
    return FairnessReport(
        correct_pairs=correct,
        total_pairs=total,
        races=len(races),
        unordered_trades=len(result.trades) - len(result.completed_rows),
    )


def causality_inversions(result: RunResult) -> List[Tuple[Tuple[str, int], Tuple[str, int]]]:
    """Eq. 4: the same-participant pairs submitted earlier but ordered
    later, as ``(earlier, later)`` keys.  DBO must never have one —
    delivery clocks are monotone."""
    trades = result.trades
    submission_times, positions, seqs = trades.submission_times, trades.positions, trades.trade_seqs
    by_mp: Dict[int, List[int]] = {}
    for row in result.completed_rows:
        by_mp.setdefault(trades.mp_slots[row], []).append(row)
    inversions: List[Tuple[Tuple[str, int], Tuple[str, int]]] = []
    # Participant slots in order: an explicit, hash-free order.
    for slot in sorted(by_mp):
        rows = sorted(by_mp[slot], key=submission_times.__getitem__)
        for a, b in zip(rows, rows[1:]):
            if submission_times[a] < submission_times[b] and positions[a] > positions[b]:
                inversions.append(((trades.mp_ids[slot], seqs[a]), (trades.mp_ids[slot], seqs[b])))
    return inversions


def causality_violations(result: RunResult) -> int:
    """How many :func:`causality_inversions` the run has."""
    return len(causality_inversions(result))
