"""Unit tests for the clock substrate."""

import pytest

from repro.sim.clocks import (
    DriftingClock,
    PerfectClock,
    SynchronizedClock,
)


class TestPerfectClock:
    def test_reads_true_time(self):
        clock = PerfectClock()
        assert clock.now(123.456) == 123.456

    def test_elapsed_is_exact(self):
        clock = PerfectClock()
        assert clock.elapsed(10.0, 25.0) == 15.0

    def test_interval_to_true_identity(self):
        assert PerfectClock().interval_to_true(20.0) == 20.0


class TestDriftingClock:
    def test_offset_shifts_reading(self):
        clock = DriftingClock(offset=100.0)
        assert clock.now(0.0) == 100.0
        assert clock.now(50.0) == 150.0

    def test_drift_scales_rate(self):
        clock = DriftingClock(drift_rate=0.01)
        assert clock.now(100.0) == pytest.approx(101.0)

    def test_elapsed_ignores_offset(self):
        fast = DriftingClock(offset=1e9, drift_rate=0.0)
        assert fast.elapsed(5.0, 10.0) == pytest.approx(5.0)

    def test_elapsed_scales_with_drift(self):
        clock = DriftingClock(offset=3.0, drift_rate=2e-4)
        assert clock.elapsed(0.0, 1000.0) == pytest.approx(1000.2)

    def test_invert_roundtrips(self):
        clock = DriftingClock(offset=17.0, drift_rate=1e-4)
        for t in [0.0, 1.0, 123.456, 1e6]:
            assert clock.invert(clock.now(t)) == pytest.approx(t)

    def test_interval_to_true_compensates_drift(self):
        clock = DriftingClock(drift_rate=1e-3)
        true = clock.interval_to_true(20.0)
        # A locally measured 20 µs corresponds to slightly less true time
        # on a fast clock.
        assert true < 20.0
        assert clock.elapsed(0.0, true) == pytest.approx(20.0)

    def test_rejects_stopped_clock(self):
        with pytest.raises(ValueError):
            DriftingClock(drift_rate=-1.0)


class TestSynchronizedClock:
    def test_zero_error_is_perfect(self):
        clock = SynchronizedClock(error_bound=0.0)
        for t in [0.0, 10.0, 1e6]:
            assert clock.now(t) == t

    def test_error_is_bounded(self):
        clock = SynchronizedClock(error_bound=5.0, seed=3)
        for t in range(0, 2_000_000, 10_007):
            assert abs(clock.error_at(float(t))) <= 5.0 + 1e-9

    def test_error_varies_over_time(self):
        clock = SynchronizedClock(error_bound=5.0, seed=3, wander_period=1000.0)
        values = {round(clock.error_at(float(t)), 6) for t in range(0, 2000, 100)}
        assert len(values) > 3

    def test_different_seeds_differ(self):
        a = SynchronizedClock(error_bound=5.0, seed=1)
        b = SynchronizedClock(error_bound=5.0, seed=2)
        assert any(
            abs(a.error_at(float(t)) - b.error_at(float(t))) > 1e-9
            for t in range(0, 10_000, 500)
        )

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            SynchronizedClock(error_bound=-1.0)

    def test_rejects_bad_wander_period(self):
        with pytest.raises(ValueError):
            SynchronizedClock(error_bound=1.0, wander_period=0.0)
