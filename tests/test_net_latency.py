"""Unit tests for the time-indexed latency models."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.latency import (
    CloudLatencyModel,
    CompositeLatency,
    ConstantLatency,
    NormalJitterLatency,
    SpikeSchedule,
    StepLatency,
    TraceLatency,
    UniformJitterLatency,
)
from repro.sim.randomness import stable_exponential, stable_uniform, stable_unit

TIMES = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


class TestConstantLatency:
    def test_constant_everywhere(self):
        model = ConstantLatency(12.5)
        assert model.latency_at(0.0) == 12.5
        assert model.latency_at(1e9) == 12.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)


class TestUniformJitterLatency:
    @given(TIMES)
    def test_within_bounds(self, t):
        model = UniformJitterLatency(10.0, 4.0, seed=1)
        assert 10.0 <= model.latency_at(t) < 14.0

    def test_deterministic(self):
        model = UniformJitterLatency(10.0, 4.0, seed=1)
        assert model.latency_at(55.5) == model.latency_at(55.5)

    def test_same_slot_same_latency(self):
        model = UniformJitterLatency(10.0, 4.0, seed=1, slot=10.0)
        assert model.latency_at(20.1) == model.latency_at(29.9)

    def test_different_slots_usually_differ(self):
        model = UniformJitterLatency(10.0, 4.0, seed=1, slot=1.0)
        values = {model.latency_at(float(t)) for t in range(100)}
        assert len(values) > 50

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformJitterLatency(-1.0, 1.0)
        with pytest.raises(ValueError):
            UniformJitterLatency(1.0, 1.0, slot=0.0)


class TestNormalJitterLatency:
    @given(TIMES)
    def test_never_below_base(self, t):
        model = NormalJitterLatency(5.0, 1.0, seed=2)
        assert model.latency_at(t) >= 5.0

    def test_empirical_mean_matches_estimate(self):
        model = NormalJitterLatency(5.0, 1.0, seed=2)
        samples = [model.latency_at(float(t)) for t in range(20_000)]
        # The half-normal mean: base + sigma * sqrt(2 / pi).
        assert sum(samples) / len(samples) == pytest.approx(5.0 + math.sqrt(2.0 / math.pi), rel=0.05)


class TestSpikeSchedule:
    def test_zero_rate_contributes_nothing(self):
        schedule = SpikeSchedule(0.0, 100.0, 1000.0, seed=1)
        assert schedule.contribution_at(12345.0) == 0.0

    def test_contribution_non_negative(self):
        schedule = SpikeSchedule(100.0, 50.0, 500.0, seed=1)
        assert all(schedule.contribution_at(float(t)) >= 0.0 for t in range(0, 100_000, 997))

    def test_deterministic_and_order_independent(self):
        a = SpikeSchedule(50.0, 100.0, 1000.0, seed=7)
        b = SpikeSchedule(50.0, 100.0, 1000.0, seed=7)
        # Query b at a later time first; values must still agree.
        later_b = b.contribution_at(90_000.0)
        early_b = b.contribution_at(10_000.0)
        early_a = a.contribution_at(10_000.0)
        later_a = a.contribution_at(90_000.0)
        assert early_a == pytest.approx(early_b)
        assert later_a == pytest.approx(later_b)

    def test_decay_after_spike(self):
        schedule = SpikeSchedule(10.0, 200.0, 1000.0, seed=3)
        schedule._materialize(1_000_000.0)
        start, amplitude = schedule._spikes[0]
        at_peak = schedule.contribution_at(start)
        much_later = schedule.contribution_at(start + 20 * 1000.0)
        assert at_peak >= amplitude * 0.99
        assert much_later < at_peak * 0.01

    def test_negative_time_is_zero(self):
        schedule = SpikeSchedule(10.0, 200.0, 1000.0, seed=3)
        assert schedule.contribution_at(-5.0) == 0.0

    def test_amplitude_capped(self):
        schedule = SpikeSchedule(100.0, 50.0, 500.0, seed=4, amplitude_max_factor=2.0)
        schedule._materialize(1_000_000.0)
        assert all(a <= 100.0 for _, a in schedule._spikes)


class TestCloudLatencyModel:
    def test_at_least_base(self):
        model = CloudLatencyModel(base=13.5, jitter=1.5, seed=5)
        assert all(model.latency_at(float(t)) >= 13.5 for t in range(0, 50_000, 499))


def _brute_force_latency(model: CloudLatencyModel, t: float) -> float:
    """``model.latency_at(t)`` from the definitions alone: the jitter draw
    of t's slot plus every spike of the Poisson schedule, regenerated from
    index 0, that starts within 12 decay constants before t — summed in
    start order, as the model does, so the result must match bit for bit."""
    base_model, spikes = model.base_model, model.spikes
    jitter = base_model.base + base_model.jitter * stable_unit(
        base_model.seed, math.floor(t / base_model.slot)
    )
    cap = spikes.amplitude_max_factor * spikes.amplitude_mean
    lower = t - 12.0 * spikes.decay
    total, start, index = 0.0, 0.0, 0
    while True:
        start += max(stable_exponential(1e6 / spikes.rate_per_second, spikes.seed, index, 0), 1.0)
        if start > t:
            return jitter + total
        if start >= lower:
            amplitude = min(stable_exponential(spikes.amplitude_mean, spikes.seed, index, 1), cap)
            total += amplitude * math.exp(-(t - start) / spikes.decay)
        index += 1


class TestSpikeScheduleHorizon:
    """The spike list is extended only when a query passes the horizon it
    really covers, and the quiet-window shortcut returns exactly the sum."""

    def _model(self) -> CloudLatencyModel:
        # Spikes every ~2 ms that decay over ~1 ms: a grid over 400 ms
        # crosses ~200 spikes, quiet stretches and overlapping tails.
        return CloudLatencyModel(
            base=13.0, jitter=1.5, spike_rate_per_second=500.0,
            spike_amplitude_mean=80.0, spike_decay=1000.0, seed=17,
        )

    def _grid(self) -> list:
        return sorted(stable_uniform(0.0, 400_000.0, 23, i) for i in range(4000))

    def test_latency_matches_brute_force_spike_sum(self):
        model = self._model()
        grid = self._grid()
        # Ascending (the links' pattern) and then revisited out of order.
        queries = grid + grid[::-7]
        assert [model.latency_at(t) for t in queries] == [
            _brute_force_latency(model, t) for t in queries
        ]

    def test_materialize_runs_once_per_spike_at_most(self):
        model = self._model()
        schedule = model.spikes
        calls = []
        materialize = schedule._materialize
        schedule._materialize = lambda until: (calls.append(until), materialize(until))[1]
        for t in self._grid():
            model.latency_at(t)
        # Every call appends at least one spike, so calls <= spikes; the
        # seed code re-entered it on practically every query instead.
        assert 0 < len(calls) <= len(schedule._spikes) < 4000 // 4

    def test_zero_rate_materializes_once(self):
        schedule = SpikeSchedule(0.0, 100.0, 1000.0, seed=1)
        calls = []
        materialize = schedule._materialize
        schedule._materialize = lambda until: (calls.append(until), materialize(until))[1]
        assert [schedule.contribution_at(float(t)) for t in range(1, 5000, 7)] == [0.0] * 715
        assert len(calls) == 1


class TestTraceLatency:
    def test_interpolates(self):
        model = TraceLatency([0.0, 10.0], [100.0, 200.0])
        assert model.latency_at(5.0) == pytest.approx(150.0)

    def test_endpoints(self):
        model = TraceLatency([0.0, 10.0], [100.0, 200.0])
        assert model.latency_at(0.0) == pytest.approx(100.0)

    def test_wraps_cyclically(self):
        model = TraceLatency([0.0, 10.0], [100.0, 200.0])
        assert model.latency_at(15.0) == pytest.approx(model.latency_at(5.0))

    def test_offset_slices(self):
        model = TraceLatency([0.0, 10.0, 20.0], [1.0, 2.0, 3.0], offset=10.0)
        assert model.latency_at(0.0) == pytest.approx(2.0)

    def test_scale_halves_rtt(self):
        model = TraceLatency([0.0, 10.0], [100.0, 200.0], scale=0.5)
        assert model.latency_at(0.0) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceLatency([0.0], [1.0])
        with pytest.raises(ValueError):
            TraceLatency([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            TraceLatency([0.0, 1.0], [1.0])


class TestCombinators:
    def test_composite_sums(self):
        model = CompositeLatency([ConstantLatency(3.0), ConstantLatency(4.0)])
        assert model.latency_at(1.0) == 7.0

    def test_composite_needs_components(self):
        with pytest.raises(ValueError):
            CompositeLatency([])


class TestStepLatency:
    def test_steps(self):
        model = StepLatency([(0.0, 10.0), (100.0, 50.0), (200.0, 10.0)])
        assert model.latency_at(50.0) == 10.0
        assert model.latency_at(100.0) == 50.0
        assert model.latency_at(150.0) == 50.0
        assert model.latency_at(250.0) == 10.0

    def test_before_first_step(self):
        model = StepLatency([(10.0, 5.0)])
        assert model.latency_at(0.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLatency([])
        with pytest.raises(ValueError):
            StepLatency([(0.0, 1.0), (0.0, 2.0)])
