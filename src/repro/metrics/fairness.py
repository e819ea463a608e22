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

:func:`evaluate_fairness` is the sum of those per-trade counts and
:func:`fairness_by_rt_bucket` is the same counts binned by the faster
trade's response time.  A race of ``n`` trades costs ``O(n log n)``
comparisons (the sort and one ``bisect`` per trade) instead of the
``n(n-1)/2`` pair visits of the definition.  The sorted-list insert also
shifts up to ``n`` machine words inside C (one ``memmove``); a race
already in fair order — the common case — appends at the end and shifts
nothing, and on a shuffled race a Fenwick tree over position ranks, which
shifts nothing either, was measured slower below n ≈ 20 000
(EXPERIMENTS.md, "Pairwise-fairness kernel").

Also provided: the causality check of Eq. 4 (a participant's own trades
must be ordered in submission order).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.records import RunResult, TradeRecord

__all__ = [
    "FairnessReport",
    "evaluate_fairness",
    "causality_violations",
    "fairness_by_rt_bucket",
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


def _sweep(keys: Sequence[Tuple[float, int, str]]) -> Tuple[List[int], List[int]]:
    """Per key of a slowest-first ``(-response_time, -position, mp_id)``
    list: the pairs it is the faster trade of, ``mp_id`` ignored.

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


def _faster_trade_counts(race: Sequence[TradeRecord]) -> Tuple[List[float], List[int], List[int]]:
    """One race's competing pairs, each booked to its faster trade.

    Returns ``(response_times, correct, total)``, one entry per trade (in
    slowest-first order): the trade's response time, and how many competing
    pairs it is the faster member of — ordered correctly, and in all.
    """
    keys = sorted((-t.response_time, -t.position, t.mp_id) for t in race)
    correct, total = _sweep(keys)
    by_mp: Dict[str, List[int]] = {}
    for index, key in enumerate(keys):
        by_mp.setdefault(key[2], []).append(index)
    if len(by_mp) < len(keys):
        # Same-participant pairs do not compete: take them back out.
        # Integer subtraction commutes; name order is the explicit order.
        for mp_id in sorted(by_mp):
            own = by_mp[mp_id]
            if len(own) > 1:
                own_correct, own_total = _sweep([keys[index] for index in own])
                for index, c, t in zip(own, own_correct, own_total):
                    correct[index] -= c
                    total[index] -= t
    return [-key[0] for key in keys], correct, total


def evaluate_fairness(result: RunResult) -> FairnessReport:
    """Compute the paper's fairness ratio over all speed races in a run."""
    races = result.trades_by_trigger()
    correct = 0
    total = 0
    # Pair counts are commutative integer sums, but iterate races in
    # trigger order anyway — explicit order beats a suppression.
    for trigger in sorted(races):
        _, race_correct, race_total = _faster_trade_counts(races[trigger])
        correct += sum(race_correct)
        total += sum(race_total)
    return FairnessReport(
        correct_pairs=correct,
        total_pairs=total,
        races=len(races),
        unordered_trades=sum(1 for t in result.trades if not t.completed),
    )


def causality_violations(result: RunResult) -> int:
    """Eq. 4: count same-participant inversions (submitted earlier but
    ordered later).  DBO must always return 0 — delivery clocks are
    monotone."""
    violations = 0
    by_mp: Dict[str, List[TradeRecord]] = {}
    for trade in result.completed_trades:
        by_mp.setdefault(trade.mp_id, []).append(trade)
    # Violation counts are commutative integer sums over per-MP groups;
    # iterate participants in name order for an explicit, hash-free order.
    for mp_id in sorted(by_mp):
        trades_sorted = sorted(by_mp[mp_id], key=lambda t: t.submission_time)
        for earlier, later in zip(trades_sorted, trades_sorted[1:]):
            if earlier.submission_time < later.submission_time and earlier.position > later.position:
                violations += 1
    return violations


def fairness_by_rt_bucket(
    result: RunResult,
    buckets: Sequence[Tuple[float, float]],
) -> Dict[Tuple[float, float], FairnessReport]:
    """Fairness restricted to races whose *faster* trade falls in a bucket.

    Table 4 runs separate experiments per response-time range; this
    helper additionally supports slicing a single mixed run: a competing
    pair is attributed to the bucket containing the faster trade's
    response time (the LRTF condition constrains only the faster trade).
    """
    races = result.trades_by_trigger()
    tallies: Dict[Tuple[float, float], List[int]] = {b: [0, 0] for b in buckets}
    # Bucket tallies are commutative integer sums; trigger order is the
    # explicit iteration order.
    for trigger in sorted(races):
        for faster_rt, correct, total in zip(*_faster_trade_counts(races[trigger])):
            for bucket in buckets:
                if bucket[0] <= faster_rt < bucket[1]:
                    tallies[bucket][0] += correct
                    tallies[bucket][1] += total
                    break
    return {
        bucket: FairnessReport(
            correct_pairs=counts[0],
            total_pairs=counts[1],
            races=len(races),
            unordered_trades=0,
        )
        # Keyed by the caller's bucket sequence — the explicit order.
        for bucket, counts in ((b, tallies[b]) for b in buckets)
    }
