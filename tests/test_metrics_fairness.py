"""Unit tests for the fairness metric (§6.1)."""

import pytest

from repro.metrics.fairness import (
    FairnessReport,
    causality_violations,
    evaluate_fairness,
    fairness_by_rt_bucket,
    pairwise_correct,
)
from repro.metrics.records import RunResult, TradeRecord


def record(mp, seq, trigger, rt, s=0.0, f=None, pos=None):
    return TradeRecord(
        mp_id=mp,
        trade_seq=seq,
        trigger_point=trigger,
        response_time=rt,
        submission_time=s,
        forward_time=f,
        position=pos,
    )


def run_of(trades):
    return RunResult(
        scheme="test",
        trades=trades,
        generation_times={0: 0.0, 1: 40.0},
        network_send_times={0: 0.0, 1: 40.0},
        raw_arrivals={},
        delivery_times={},
    )


class TestPairwiseCorrect:
    def test_correct_pair(self):
        a = record("a", 0, 0, 5.0, f=1.0, pos=0)
        b = record("b", 0, 0, 7.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) is True

    def test_flipped_pair(self):
        a = record("a", 0, 0, 5.0, f=2.0, pos=1)
        b = record("b", 0, 0, 7.0, f=1.0, pos=0)
        assert pairwise_correct(a, b) is False

    def test_same_mp_not_competing(self):
        a = record("a", 0, 0, 5.0, f=1.0, pos=0)
        b = record("a", 1, 0, 7.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) is None

    def test_different_trigger_not_competing(self):
        a = record("a", 0, 0, 5.0, f=1.0, pos=0)
        b = record("b", 0, 1, 7.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) is None

    def test_equal_rt_skipped(self):
        a = record("a", 0, 0, 5.0, f=1.0, pos=0)
        b = record("b", 0, 0, 5.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) is None

    def test_incomplete_trade_skipped(self):
        a = record("a", 0, 0, 5.0)
        b = record("b", 0, 0, 7.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) is None

    def test_symmetric(self):
        a = record("a", 0, 0, 5.0, f=1.0, pos=0)
        b = record("b", 0, 0, 7.0, f=2.0, pos=1)
        assert pairwise_correct(a, b) == pairwise_correct(b, a)


class TestEvaluateFairness:
    def test_perfect_run(self):
        trades = [
            record("a", 0, 0, 5.0, f=1.0, pos=0),
            record("b", 0, 0, 7.0, f=2.0, pos=1),
            record("c", 0, 0, 9.0, f=3.0, pos=2),
        ]
        report = evaluate_fairness(run_of(trades))
        assert report.total_pairs == 3
        assert report.correct_pairs == 3
        assert report.ratio == 1.0
        assert report.percent == 100.0

    def test_no_pairs_prints_na_but_pools_as_one(self):
        report = FairnessReport(correct_pairs=0, total_pairs=0, races=0, unordered_trades=0)
        assert report.ratio == 1.0
        assert str(report) == "fairness n/a (0/0 pairs over 0 races)"
        assert str(FairnessReport(3, 4, 1, 0)) == "fairness 75.00% (3/4 pairs over 1 races)"

    def test_partial_misordering(self):
        trades = [
            record("a", 0, 0, 5.0, f=3.0, pos=2),  # fastest, ordered last
            record("b", 0, 0, 7.0, f=1.0, pos=0),
            record("c", 0, 0, 9.0, f=2.0, pos=1),
        ]
        report = evaluate_fairness(run_of(trades))
        assert report.total_pairs == 3
        assert report.correct_pairs == 1  # only (b, c) correct
        assert report.ratio == pytest.approx(1 / 3)

    def test_races_grouped_by_trigger(self):
        trades = [
            record("a", 0, 0, 5.0, f=1.0, pos=0),
            record("b", 0, 0, 7.0, f=2.0, pos=1),
            record("a", 1, 1, 9.0, f=3.0, pos=2),
            record("b", 1, 1, 6.0, f=4.0, pos=3),  # flipped in race 1
        ]
        report = evaluate_fairness(run_of(trades))
        assert report.races == 2
        assert report.total_pairs == 2
        assert report.correct_pairs == 1

    def test_empty_run_vacuously_fair(self):
        report = evaluate_fairness(run_of([]))
        assert report.ratio == 1.0
        assert report.total_pairs == 0

    def test_unordered_trades_counted(self):
        trades = [
            record("a", 0, 0, 5.0),  # never forwarded
            record("b", 0, 0, 7.0, f=2.0, pos=0),
        ]
        report = evaluate_fairness(run_of(trades))
        assert report.unordered_trades == 1

    def test_str(self):
        trades = [
            record("a", 0, 0, 5.0, f=1.0, pos=0),
            record("b", 0, 0, 7.0, f=2.0, pos=1),
        ]
        text = str(evaluate_fairness(run_of(trades)))
        assert "100.00%" in text


class TestCausality:
    def test_in_order_ok(self):
        trades = [
            record("a", 0, 0, 5.0, s=1.0, f=1.0, pos=0),
            record("a", 1, 0, 7.0, s=2.0, f=2.0, pos=1),
        ]
        assert causality_violations(run_of(trades)) == 0

    def test_inversion_detected(self):
        trades = [
            record("a", 0, 0, 5.0, s=1.0, f=5.0, pos=1),
            record("a", 1, 0, 7.0, s=2.0, f=2.0, pos=0),
        ]
        assert causality_violations(run_of(trades)) == 1

    def test_cross_mp_not_causality(self):
        trades = [
            record("a", 0, 0, 5.0, s=1.0, f=5.0, pos=1),
            record("b", 0, 0, 7.0, s=2.0, f=2.0, pos=0),
        ]
        assert causality_violations(run_of(trades)) == 0


class TestBuckets:
    def test_pairs_attributed_to_faster_trades_bucket(self):
        trades = [
            record("a", 0, 0, 12.0, f=1.0, pos=0),
            record("b", 0, 0, 22.0, f=2.0, pos=1),
        ]
        buckets = [(10.0, 15.0), (20.0, 25.0)]
        reports = fairness_by_rt_bucket(run_of(trades), buckets)
        assert reports[(10.0, 15.0)].total_pairs == 1
        assert reports[(20.0, 25.0)].total_pairs == 0

    def test_bucket_ratios(self):
        trades = [
            record("a", 0, 0, 12.0, f=2.0, pos=1),  # flipped
            record("b", 0, 0, 22.0, f=1.0, pos=0),
            record("a", 1, 1, 13.0, f=3.0, pos=2),  # correct
            record("b", 1, 1, 23.0, f=4.0, pos=3),
        ]
        reports = fairness_by_rt_bucket(run_of(trades), [(10.0, 15.0)])
        assert reports[(10.0, 15.0)].total_pairs == 2
        assert reports[(10.0, 15.0)].correct_pairs == 1
