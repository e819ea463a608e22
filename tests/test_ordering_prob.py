"""The probabilistic ordering scheme (``prob``) end to end.

Three layers, matching the claims the scheme makes:

* **buffer** — :class:`ProbOrderingBuffer` releases on horizon expiry in
  stamp order, counts every inversion, and survives crash/failover with
  its odometers intact;
* **deployment** — ``prob`` is a pinned, engine-independent sixth scheme
  whose digest is as stable as the five deterministic ones;
* **the trade-off** — on the canonical seed-5 comparison it beats DBO's
  p99 release latency, and its measured inversion rate (pooled Wilson CI
  across seeds) sits inside :func:`repro.theory.bounds.prob_ordering_bound`.
"""

from typing import Any, List, Tuple

import pytest

from repro.analysis.stats import wilson_interval
from repro.baselines.base import default_network_specs
from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.params import AggregationTopology
from repro.core.ordering_buffer import ProbOrderingBuffer
from repro.exchange.messages import Side, TaggedTrade, TradeOrder
from repro.experiments.registry import get_builder
from repro.experiments.runner import run_scheme
from repro.metrics.latency import latency_stats
from repro.metrics.serialization import trade_ordering_digest
from repro.theory.bounds import prob_ordering_bound

# Pinned alongside the five deterministic schemes in
# tests/test_regression_digest.py: canonical comparison, horizon 6.0.
PROB_DIGEST = "6260448bc452317da9b0781ae17486551899a99f332be718684e26bb15507c39"

# The arrival-lag spread of default_network_specs: one-way bases are drawn
# from [10, 17) with jitter [0, 2), so two rivals' arrival lags differ by
# at most (17 + 2) - 10 = 9 µs.
SPREAD = 9.0
HORIZON = 6.0


def _run(scheme: str, seed: int = 5, **kwargs):
    return run_scheme(
        scheme,
        default_network_specs(4, seed=seed),
        duration=5000.0,
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Buffer unit tests


class FakeEngine:
    def __init__(self) -> None:
        self.now = 0.0
        self._wakes: List[Tuple[float, int, int, Any]] = []
        self._n = 0

    def schedule_at(self, when: float, fn, priority: int = 0, args=()) -> None:
        self._n += 1
        self._wakes.append((when, priority, self._n, (fn, args)))

    def run_until(self, t: float) -> None:
        self._wakes.sort()
        while self._wakes and self._wakes[0][0] <= t:
            when, _, _, (fn, args) = self._wakes.pop(0)
            self.now = max(self.now, when)
            fn(*args)
            self._wakes.sort()
        self.now = max(self.now, t)


def tagged(mp: str, seq: int, stamp: Tuple[int, float]) -> TaggedTrade:
    return TaggedTrade(
        trade=TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0),
        clock=DeliveryClockStamp(*stamp),
    )


def make_buffer(horizon: float = 5.0):
    fake = FakeEngine()
    released: List[TaggedTrade] = []
    buffer = ProbOrderingBuffer(
        participants=["a", "b"],
        engine=fake,
        horizon=horizon,
        sink=lambda item, now: released.append(item),
    )
    return fake, buffer, released


class TestProbOrderingBuffer:
    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            ProbOrderingBuffer(participants=["a"], engine=FakeEngine(), horizon=-1.0)

    def test_releases_exactly_at_horizon_expiry(self):
        fake, buffer, released = make_buffer(horizon=5.0)
        buffer.on_tagged_trade(tagged("a", 0, (1, 1.0)), 9.0, 10.0)
        fake.run_until(14.9)
        assert released == []
        fake.run_until(15.0)
        assert [item.trade.key for item in released] == [("a", 0)]
        assert buffer.ordering_inversions == 0
        assert buffer.trades_released == 1

    def test_due_trades_release_in_stamp_order(self):
        fake, buffer, released = make_buffer(horizon=5.0)
        # Larger stamp arrives first; both are due by t=16.
        buffer.on_tagged_trade(tagged("a", 0, (2, 0.0)), 9.0, 10.0)
        buffer.on_tagged_trade(tagged("b", 0, (1, 0.0)), 10.0, 11.0)
        fake.run_until(16.0)
        assert [item.trade.key for item in released] == [("b", 0), ("a", 0)]
        assert buffer.ordering_inversions == 0

    def test_late_small_stamp_counts_as_inversion(self):
        fake, buffer, released = make_buffer(horizon=5.0)
        buffer.on_tagged_trade(tagged("a", 0, (2, 0.0)), 9.0, 10.0)
        fake.run_until(15.0)  # (2, 0.0) released before the rival shows up
        buffer.on_tagged_trade(tagged("b", 0, (1, 0.0)), 10.0, 20.0)
        fake.run_until(25.0)
        assert [item.trade.key for item in released] == [("a", 0), ("b", 0)]
        assert buffer.ordering_inversions == 1

    def test_duplicates_still_ignored(self):
        fake, buffer, released = make_buffer(horizon=5.0)
        buffer.on_tagged_trade(tagged("a", 0, (1, 0.0)), 9.0, 10.0)
        buffer.on_tagged_trade(tagged("a", 0, (1, 0.0)), 9.0, 12.0)
        fake.run_until(30.0)
        assert len(released) == 1
        buffer.on_tagged_trade(tagged("a", 0, (1, 0.0)), 9.0, 31.0)
        fake.run_until(60.0)
        assert len(released) == 1
        assert buffer.trades_released == 1

    def test_flush_drains_and_keeps_inversion_accounting(self):
        fake, buffer, released = make_buffer(horizon=50.0)
        buffer.on_tagged_trade(tagged("a", 0, (2, 0.0)), 9.0, 10.0)
        buffer.on_tagged_trade(tagged("b", 0, (1, 0.0)), 10.0, 11.0)
        assert buffer.flush(12.0) == 2
        # Flush pops in stamp order, so no inversion here.
        assert [item.trade.key for item in released] == [("b", 0), ("a", 0)]
        assert buffer.ordering_inversions == 0
        assert not buffer._heap and not buffer.horizon_policy._due

    def test_crash_clears_due_map(self):
        fake, buffer, _ = make_buffer(horizon=5.0)
        buffer.on_tagged_trade(tagged("a", 0, (1, 0.0)), 9.0, 10.0)
        assert buffer.horizon_policy._due
        lost = buffer.crash()
        assert lost == 1
        assert not buffer.horizon_policy._due
        # Stale horizon wakes after a crash must be harmless no-ops.
        fake.run_until(100.0)
        assert buffer.trades_released == 0

    def test_carry_over_counters_preserves_inversions_and_max(self):
        fake, old, released = make_buffer(horizon=5.0)
        old.on_tagged_trade(tagged("a", 0, (5, 0.0)), 9.0, 10.0)
        fake.run_until(15.0)
        old.on_tagged_trade(tagged("b", 0, (1, 0.0)), 10.0, 20.0)
        fake.run_until(25.0)
        assert old.ordering_inversions == 1

        _, new, new_released = make_buffer(horizon=5.0)
        new.carry_over_counters(old)
        assert new.ordering_inversions == 1
        # A post-failover release below the carried max is still an inversion.
        new.on_tagged_trade(tagged("b", 1, (2, 0.0)), 30.0, 31.0)
        new.flush(32.0)
        assert new.ordering_inversions == 2


# ----------------------------------------------------------------------
# Deployment surface


class TestProbDeployment:
    """``prob`` is the ``DBODeployment`` registry row with a horizon."""

    def build(self, **kwargs):
        return get_builder("prob").build(default_network_specs(2, seed=3), **kwargs)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            self.build(horizon=-0.5)

    def test_sharded_ob_rejected(self):
        with pytest.raises(ValueError, match="non-sharded"):
            self.build(n_ob_shards=2)

    def test_aggregation_tree_rejected(self):
        with pytest.raises(ValueError, match="aggregation-tree"):
            self.build(topology=AggregationTopology(depth=1))

    def test_scheme_metadata(self):
        deployment = self.build(seed=3)
        assert deployment.scheme_name == "prob"
        assert deployment.ordering_guarantee == "probabilistic"
        deployment.run(duration=500.0)
        assert isinstance(deployment.ordering_buffer, ProbOrderingBuffer)
        assert deployment.ordering_buffer.horizon == 6.0

    @pytest.mark.parametrize(
        "horizon, completed", [(0.0, 500), (1e9, 0)], ids=["zero", "beyond-the-run"]
    )
    def test_degenerate_horizon_ends_in_a_result(self, horizon, completed):
        # h = 0 releases on arrival; a horizon past duration + drain
        # releases nothing, and the run still stops at its drain cap
        # with every trade reported incomplete.
        result = _run("prob", horizon=horizon)
        assert len(result.trades) == 500
        assert sum(1 for t in result.trades if t.position is not None) == completed
        assert result.counters["ob_trades_released"] == completed
        assert result.counters["settled_at"] <= 5000.0 + 20_000.0

    def test_counters_expose_inversions_and_releases(self):
        result = _run("prob", horizon=HORIZON)
        assert "ordering_inversions" in result.counters
        assert result.counters["ob_trades_released"] == 500.0


# ----------------------------------------------------------------------
# Pinned behaviour and the measured trade-off


class TestProbPinnedBehaviour:
    def test_golden_digest(self):
        result = _run("prob", horizon=HORIZON)
        assert sum(1 for t in result.trades if t.position is not None) == 500
        assert trade_ordering_digest(result) == PROB_DIGEST

    def test_digest_is_engine_independent(self):
        result = _run("prob", horizon=HORIZON, engine="reference")
        assert trade_ordering_digest(result) == PROB_DIGEST

    def test_wide_horizon_reproduces_dbo_order(self):
        # h ≥ the arrival-lag spread ⇒ every rival is in the buffer by
        # release time ⇒ DBO's stamp order, zero inversions.
        result = _run("prob", horizon=4 * SPREAD)
        assert result.counters["ordering_inversions"] == 0.0

    def test_beats_dbo_p99_release_latency(self):
        prob = latency_stats(_run("prob", horizon=HORIZON))
        dbo = latency_stats(_run("dbo"))
        assert prob.p99 < dbo.p99
        assert prob.p50 < dbo.p50

    def test_inversion_rate_within_theory_bound(self):
        """Pooled Wilson CI of the measured inversion rate vs the model.

        Seeds vary both the network draw and the run substreams; the
        per-release inversion trials pool into one binomial.  The 95 %
        upper bound must sit inside ε = prob_ordering_bound(h, S, n-1)
        — and the scheme must actually be probabilistic (inversions > 0
        somewhere), or the bound is trivially satisfied.
        """
        pairs = []
        for seed in range(5, 11):
            result = _run("prob", seed=seed, horizon=HORIZON)
            pairs.append(
                (
                    int(result.counters["ordering_inversions"]),
                    int(result.counters["ob_trades_released"]),
                )
            )
        inversions = sum(p[0] for p in pairs)
        releases = sum(p[1] for p in pairs)
        assert inversions > 0
        _, upper = wilson_interval(inversions, releases, confidence=0.95)
        epsilon = prob_ordering_bound(HORIZON, SPREAD, competitors=3)
        assert upper <= epsilon


# ----------------------------------------------------------------------
# The theory bound itself


class TestProbOrderingBound:
    def test_zero_horizon_single_rival_is_half(self):
        assert prob_ordering_bound(0.0, 9.0) == pytest.approx(0.5)

    def test_horizon_covering_spread_is_exact_order(self):
        assert prob_ordering_bound(9.0, 9.0) == 0.0
        assert prob_ordering_bound(20.0, 9.0, competitors=7) == 0.0

    def test_union_bound_scales_with_competitors(self):
        single = prob_ordering_bound(6.0, 9.0)
        assert prob_ordering_bound(6.0, 9.0, competitors=3) == pytest.approx(
            3 * single
        )
        assert prob_ordering_bound(6.0, 9.0, competitors=3) == pytest.approx(1 / 6)

    def test_capped_at_one(self):
        assert prob_ordering_bound(0.0, 9.0, competitors=100) == 1.0

    def test_monotone_decreasing_in_horizon(self):
        values = [prob_ordering_bound(h, 9.0, competitors=2) for h in range(10)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": -1.0, "spread": 9.0},
            {"horizon": 1.0, "spread": 0.0},
            {"horizon": 1.0, "spread": -2.0},
            {"horizon": 1.0, "spread": 9.0, "competitors": 0},
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            prob_ordering_bound(**kwargs)
