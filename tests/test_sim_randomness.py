"""Unit and property tests for deterministic coordinate-indexed randomness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.randomness import (
    SubstreamCounter,
    splitmix64,
    stable_bool,
    stable_exponential,
    stable_u64,
    stable_uniform,
    stable_unit,
)

MASK64 = (1 << 64) - 1


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_stays_in_64_bits(self):
        for x in [0, 1, MASK64, 2**63]:
            assert 0 <= splitmix64(x) <= MASK64

    @given(st.integers(min_value=0, max_value=MASK64))
    def test_single_bit_flips_change_output(self, x):
        # Avalanche sanity: flipping the low bit changes many output bits.
        a = splitmix64(x)
        b = splitmix64(x ^ 1)
        assert bin(a ^ b).count("1") > 10


class TestStableU64:
    def test_deterministic_across_calls(self):
        assert stable_u64(7, 1, 2, 3) == stable_u64(7, 1, 2, 3)

    def test_coordinates_matter(self):
        assert stable_u64(7, 1, 2) != stable_u64(7, 2, 1)

    def test_seed_matters(self):
        assert stable_u64(7, 1) != stable_u64(8, 1)

    def test_negative_coordinates_allowed(self):
        assert stable_u64(7, -1) == stable_u64(7, -1)
        assert stable_u64(7, -1) != stable_u64(7, 1)


class TestStableUnit:
    @given(st.integers(), st.integers(), st.integers())
    def test_in_unit_interval(self, seed, a, b):
        value = stable_unit(seed, a, b)
        assert 0.0 <= value < 1.0

    def test_mean_is_near_half(self):
        values = [stable_unit(99, i) for i in range(20_000)]
        assert abs(sum(values) / len(values) - 0.5) < 0.01


class TestStableUniform:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_respects_bounds(self, coord):
        value = stable_uniform(5.0, 20.0, 3, coord)
        assert 5.0 <= value < 20.0


class TestStableExponential:
    def test_non_negative(self):
        for i in range(1000):
            assert stable_exponential(10.0, 5, i) >= 0.0

    def test_mean_approximation(self):
        values = [stable_exponential(10.0, 5, i) for i in range(50_000)]
        assert sum(values) / len(values) == pytest.approx(10.0, rel=0.05)


class TestStableBool:
    def test_probability_zero_never_true(self):
        assert not any(stable_bool(0.0, 1, i) for i in range(1000))

    def test_probability_approximation(self):
        hits = sum(stable_bool(0.2, 1, i) for i in range(50_000))
        assert hits / 50_000 == pytest.approx(0.2, abs=0.01)


class TestSubstreamCounter:
    def test_sequential_values_differ(self):
        stream = SubstreamCounter(1, stream_id=0)
        values = [stream.next_unit() for _ in range(100)]
        assert len(set(values)) == 100

    def test_reproducible(self):
        a = SubstreamCounter(1, stream_id=4)
        b = SubstreamCounter(1, stream_id=4)
        assert [a.next_unit() for _ in range(10)] == [b.next_unit() for _ in range(10)]

    def test_streams_independent(self):
        a = SubstreamCounter(1, stream_id=0)
        b = SubstreamCounter(1, stream_id=1)
        assert [a.next_unit() for _ in range(5)] != [b.next_unit() for _ in range(5)]

    def test_next_int_bounds(self):
        stream = SubstreamCounter(2)
        values = [stream.next_int(3, 7) for _ in range(1000)]
        assert set(values) <= {3, 4, 5, 6, 7}
        assert set(values) == {3, 4, 5, 6, 7}

    def test_next_int_rejects_bad_range(self):
        with pytest.raises(ValueError):
            SubstreamCounter(2).next_int(5, 3)

    def test_next_uniform_bounds(self):
        stream = SubstreamCounter(3)
        for _ in range(100):
            assert 2.0 <= stream.next_uniform(2.0, 4.0) < 4.0

    def test_next_exponential_non_negative(self):
        stream = SubstreamCounter(4)
        assert all(stream.next_exponential(5.0) >= 0.0 for _ in range(100))

    def test_state_tracks_counter(self):
        stream = SubstreamCounter(5, stream_id=2)
        stream.next_unit()
        stream.next_unit()
        assert stream.state == (5, 2, 2)
