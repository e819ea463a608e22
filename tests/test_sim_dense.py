"""``KeyLog`` and ``PointSeries`` against the containers they replace.

Both are differentials: every operation on the dense container must
answer exactly what a ``set`` / ``dict`` answers for the same history,
including for keys of other types that compare equal to stored ones
(``True == 1 == 1.0``, ``(g, 2.0) == (g, 2)``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dense import KeyLog, PointSeries, grow

GROUPS = st.sampled_from(["mp0", "mp1", "mp2"])

# Keys a set can hold side by side, several of them equal across types.
SCALAR_KEYS = st.one_of(
    st.integers(-5, 40),
    st.booleans(),
    st.integers(-5, 40).map(float),
    st.text(max_size=2),
)
PAIR_KEYS = st.one_of(
    st.tuples(st.none(), st.integers(-3, 30)),
    st.tuples(GROUPS, st.integers(-3, 30)),
    st.tuples(GROUPS, st.integers(0, 30).map(float)),
    st.tuples(GROUPS, st.booleans()),
)
ANY_KEY = st.one_of(SCALAR_KEYS, PAIR_KEYS)


# One contiguous seq run per group (start, length), all groups' keys
# interleaved in any order.
SHUFFLED_RUNS = st.dictionaries(GROUPS, st.tuples(st.integers(-3, 5), st.integers(0, 40))).map(
    lambda spans: [(g, seq) for g, (start, n) in spans.items() for seq in range(start, start + n)]
).flatmap(st.permutations)


def _check(log, reference, probes):
    assert len(log) == len(reference)
    stored = list(log)
    assert len(stored) == len(reference)
    assert set(stored) == reference
    for probe in probes:
        assert (probe in log) == (probe in reference), probe


class TestKeyLogIsASet:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ANY_KEY, max_size=60), st.lists(ANY_KEY, max_size=20))
    def test_mixed_keys(self, keys, probes):
        log, reference = KeyLog(), set()
        for key in keys:
            assert log.add_new(key) == (key not in reference), key
            reference.add(key)
        _check(log, reference, keys + probes)

    @settings(max_examples=200, deadline=None)
    @given(SHUFFLED_RUNS, st.lists(PAIR_KEYS, max_size=20))
    def test_shuffled_runs_end_compact(self, keys, probes):
        log, reference = KeyLog(), set()
        for key in keys:
            assert log.add_new(key) == (key not in reference)
            reference.add(key)
            assert not log.add_new(key)
        _check(log, reference, keys + probes)
        # However they arrived, each group's seqs end as one run.
        assert log._set is None and log._overflow is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-20, 60), max_size=60), st.lists(st.integers(-25, 65), max_size=20))
    def test_bare_ints(self, keys, probes):
        log, reference = KeyLog(), set()
        for key in keys:
            assert log.add_new(key) == (key not in reference)
            reference.add(key)
        _check(log, reference, keys + probes)
        assert log._set is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ANY_KEY, max_size=40), st.lists(ANY_KEY, max_size=40))
    def test_update(self, first, second):
        log, reference = KeyLog(), set(first)
        log.update(first)
        log.update(second)
        reference.update(second)
        _check(log, reference, first + second)

    def test_equal_keys_across_types(self):
        log = KeyLog()
        log.update([1, ("mp0", 2)])
        assert True in log and 1.0 in log and ("mp0", 2.0) in log
        assert ("mp0", True) not in log and (None, 1) not in log
        assert not log.add_new(True)
        assert log._set is not None and len(log) == 2
        bare = KeyLog()
        bare.add_new(5)
        assert bare.add_new((None, 5)) and len(bare) == 2

    def test_gap_fills_pull_the_overflow_back(self):
        log = KeyLog()
        for seq in (0, 1, 3, 4, 5):
            log.add_new(("mp0", seq))
        assert log._overflow == {("mp0", 3), ("mp0", 4), ("mp0", 5)}
        assert log.add_new(("mp0", 2))
        assert log._overflow is None and log._runs == {"mp0": [0, 6]}

    def test_unhashable_keys_raise_like_a_set(self):
        log = KeyLog()
        log.add_new(1)
        for key in ([1], ([1], 2)):
            for container in (log, set()):
                try:
                    key in container
                except TypeError:
                    continue
                raise AssertionError(f"{key!r} in {container!r} did not raise")


def _series(entries):
    series = PointSeries()
    for point_id, time in entries.items():
        if point_id >= len(series.times):
            grow(series.times, point_id)
        series.times[point_id] = time
    return series


POINT_TIMES = st.dictionaries(
    st.integers(0, 80), st.floats(allow_nan=False, allow_infinity=False), max_size=40
)
POINT_PROBES = st.lists(
    st.one_of(st.integers(-5, 90), st.integers(-5, 90).map(float), st.booleans(),
              st.floats(allow_nan=False), st.text(max_size=2)),
    max_size=20,
)


class TestPointSeriesIsADict:
    @settings(max_examples=300, deadline=None)
    @given(POINT_TIMES, POINT_PROBES)
    def test_differential(self, reference, probes):
        series = _series(reference)
        assert len(series) == len(reference)
        assert list(series) == sorted(reference)
        assert list(series.items()) == sorted(reference.items())
        assert series == reference and reference == series
        assert dict(series) == reference
        for probe in list(reference) + probes:
            assert (probe in series) == (probe in reference), probe
            assert series.get(probe) == reference.get(probe), probe
            if probe in reference:
                assert series[probe] == reference[probe]

    @given(POINT_TIMES, st.integers(0, 80), st.floats(allow_nan=False, allow_infinity=False))
    def test_one_change_is_seen(self, reference, point_id, time):
        series = _series(reference)
        changed = dict(reference)
        changed[point_id] = time
        assert (series == changed) == (reference == changed)

    def test_unrecorded_points_are_absent(self):
        series = PointSeries()
        grow(series.times, 3)
        series.times[2] = 7.5
        assert math.isnan(series.times[0]) and len(series.times) >= 4
        assert dict(series) == {2: 7.5} and series.get(0, "none") == "none"
        assert -2 not in series  # no negative indexing
