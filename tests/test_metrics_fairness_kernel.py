"""The counting kernel behind ``evaluate_fairness`` against the pair-by-pair
definition (``pairwise_correct``), plus its algebraic properties and a guard
on its scaling."""

import time
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fairness import (
    FairnessReport,
    evaluate_fairness,
    pairwise_correct,
)
from repro.metrics.records import RunResult, TradeRecord


def run_of(trades):
    return RunResult(
        scheme="test",
        trades=list(trades),
        generation_times={},
        network_send_times={},
        raw_arrivals={},
        delivery_times={},
    )


def race_of(rows, trigger=0):
    """Completed trades of one race from ``(mp_id, response_time, position)`` rows."""
    return [
        TradeRecord(mp, seq, trigger, rt, 0.0, forward_time=1.0, position=pos)
        for seq, (mp, rt, pos) in enumerate(rows)
    ]


# ----------------------------------------------------------------------
# The oracle: every pair of the run through the single-pair definition
# ----------------------------------------------------------------------
def oracle(result):
    """``(correct, total)`` over every competing pair of the run."""
    correct = total = 0
    for a, b in combinations(result.trades, 2):
        verdict = pairwise_correct(a, b)
        if verdict is not None:
            correct += verdict
            total += 1
    return correct, total


# Few distinct values everywhere, so ties, repeated participants and
# duplicate positions are the rule rather than the exception.
RTS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 7.000000000000001, 12.0, 19.75])
POSITIONS = st.one_of(st.integers(-3, 12), st.integers(0, 40).map(lambda p: 1000 + 7 * p))
MPS = st.integers(0, 5).map("mp{}".format)


@st.composite
def trade_rows(draw):
    """``(mp_id, rt, forward_time, position)``: about one in eight incomplete,
    missing either half of what ``completed`` needs."""
    forward, position = 1.0, draw(POSITIONS)
    fate = draw(st.integers(0, 15))
    if fate == 0:
        forward = None
    elif fate == 1:
        position = None
    return draw(MPS), draw(RTS), forward, position


@st.composite
def runs(draw):
    races = draw(st.lists(st.lists(trade_rows(), max_size=60), max_size=4))
    trades = [
        TradeRecord(mp, seq, trigger, rt, 0.0, forward_time=forward, position=position)
        for trigger, rows in enumerate(races)
        for seq, (mp, rt, forward, position) in enumerate(rows)
    ]
    return run_of(draw(st.permutations(trades)))


class TestAgainstThePairwiseDefinition:
    @settings(max_examples=300, deadline=None)
    @given(runs())
    def test_evaluate_fairness_equals_the_oracle(self, result):
        correct, total = oracle(result)
        completed = [t for t in result.trades if t.completed]
        assert evaluate_fairness(result) == FairnessReport(
            correct_pairs=correct,
            total_pairs=total,
            races=len({t.trigger_point for t in completed}),
            unordered_trades=len(result.trades) - len(completed),
        )


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(runs(), st.randoms(use_true_random=False))
    def test_invariant_under_shuffling_the_trade_list(self, result, rng):
        shuffled = list(result.trades)
        rng.shuffle(shuffled)
        assert evaluate_fairness(run_of(shuffled)) == evaluate_fairness(result)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(MPS, RTS), max_size=60))
    def test_positions_in_rt_order_are_all_correct_and_reversed_none(self, competitors):
        by_rt = sorted(competitors, key=lambda c: c[1])
        fair = run_of(race_of((mp, rt, 3 * rank) for rank, (mp, rt) in enumerate(by_rt)))
        unfair = run_of(race_of((mp, rt, -3 * rank) for rank, (mp, rt) in enumerate(by_rt)))
        fair_report, unfair_report = evaluate_fairness(fair), evaluate_fairness(unfair)
        assert fair_report.correct_pairs == fair_report.total_pairs
        assert unfair_report.correct_pairs == 0
        assert unfair_report.total_pairs == fair_report.total_pairs

    def test_races_without_a_competing_pair_are_vacuously_fair(self):
        degenerate = {
            "empty": [],
            "one trade": race_of([("a", 5.0, 0)]),
            "all same MP": race_of([("a", 5.0, 2), ("a", 6.0, 1), ("a", 7.0, 0)]),
            "all equal RT": race_of([("a", 5.0, 2), ("b", 5.0, 1), ("c", 5.0, 0)]),
            "none completed": [TradeRecord("a", 0, 0, 5.0, 0.0), TradeRecord("b", 0, 0, 6.0, 0.0)],
            "one per race": race_of([("a", 5.0, 0)], trigger=0) + race_of([("b", 6.0, 1)], trigger=1),
        }
        for name, trades in degenerate.items():
            report = evaluate_fairness(run_of(trades))
            assert report.total_pairs == 0 and report.correct_pairs == 0, name
            assert report.ratio == 1.0, name


class TestScaling:
    def test_one_20000_way_race_is_counted_not_enumerated(self):
        """200 M pairs: about a minute pair by pair, well under a second
        counted.  The bound is generous; only a quadratic kernel misses it."""
        n = 20_000
        half = n // 2
        # Trades 2k and 2k+1 tie on RT; trades i and i + half share an MP.
        # The faster half is ordered fairly, the slower half exactly
        # reversed, and every slower-half trade sits behind the faster half.
        trades = race_of(
            (f"mp{i % half}", float(i // 2), i if i < half else n + half - i) for i in range(n)
        )
        slower_half = half * (half - 1) // 2 - half // 2  # its pairs, less its ties
        total = n * (n - 1) // 2 - n // 2 - half  # all pairs, less ties, less same-MP
        start = time.perf_counter()
        report = evaluate_fairness(run_of(trades))
        elapsed = time.perf_counter() - start
        assert (report.correct_pairs, report.total_pairs) == (total - slower_half, total)
        assert elapsed < 5.0, f"{elapsed:.1f} s for one {n}-way race: the kernel went quadratic"
