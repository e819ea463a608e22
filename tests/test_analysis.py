"""Tests for the analysis package: multi-seed statistics."""

import math

import pytest

from repro.analysis.stats import summarize_samples, wilson_interval


class TestWilson:
    def test_degenerate_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        low, high = wilson_interval(90, 100)
        assert low < 0.9 < high

    def test_perfect_ratio_interval_below_one(self):
        low, high = wilson_interval(1000, 1000)
        assert high == 1.0
        assert 0.99 < low < 1.0  # informative even at p = 1

    def test_narrows_with_trials(self):
        low_small, high_small = wilson_interval(9, 10)
        low_big, high_big = wilson_interval(900, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_confidence_levels(self):
        l95, h95 = wilson_interval(50, 100, confidence=0.95)
        l99, h99 = wilson_interval(50, 100, confidence=0.99)
        assert (h99 - l99) > (h95 - l95)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=0.8)


class TestSummarizeSamples:
    def test_basic(self):
        summary = summarize_samples([1.0, 2.0, 3.0])
        assert summary.count == 3
        assert summary.mean == 2.0
        assert summary.ci_low < 2.0 < summary.ci_high

    def test_single_sample_zero_width(self):
        summary = summarize_samples([5.0])
        assert summary.ci_low == summary.ci_high == 5.0

    def test_empty_is_nan(self):
        assert math.isnan(summarize_samples([]).mean)

    def test_str(self):
        assert "n=2" in str(summarize_samples([1.0, 2.0]))
