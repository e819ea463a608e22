"""Tests for the executable theory: impossibility constructions and bounds."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.experiments.runner import build_deployment
from repro.net.latency import ConstantLatency, UniformJitterLatency
from repro.theory.bounds import (
    corollary1_condition_holds,
    lemma2_counterexample,
    theorem3_lmin,
    theorem4_pair_guaranteed,
)
from repro.theory.fairness_defs import (
    causality_condition_violations,
    lrtf_violations,
    response_time_fairness_violations,
)


class TestLemma2:
    def test_default_construction_is_contradiction(self):
        scenario = lemma2_counterexample()
        assert scenario.is_contradiction

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_construction_works_for_any_gap_pair(self, c1, extra):
        scenario = lemma2_counterexample(c1=c1, c2=c1 + extra)
        assert scenario.case1_requires_i_after_j
        assert scenario.case2_requires_i_before_j
        assert scenario.is_contradiction

    def test_requires_c1_below_c2(self):
        with pytest.raises(ValueError):
            lemma2_counterexample(c1=5.0, c2=5.0)


class TestCorollary1:
    def test_equal_schedules_pass(self):
        deliveries = {
            "a": {0: 10.0, 1: 15.0, 2: 40.0},
            "b": {0: 20.0, 1: 25.0, 2: 50.0},
        }
        assert corollary1_condition_holds(deliveries, delta=20.0)

    def test_unequal_close_gaps_fail(self):
        deliveries = {
            "a": {0: 10.0, 1: 15.0},   # gap 5 < δ
            "b": {0: 20.0, 1: 29.0},   # gap 9 ≠ 5
        }
        assert not corollary1_condition_holds(deliveries, delta=20.0)

    def test_unequal_wide_gaps_allowed(self):
        deliveries = {
            "a": {0: 10.0, 1: 40.0},   # gap 30 > δ
            "b": {0: 20.0, 1: 60.0},   # gap 40 > δ: no constraint
        }
        assert corollary1_condition_holds(deliveries, delta=20.0)

    def test_single_participant_trivially_holds(self):
        assert corollary1_condition_holds({"a": {0: 1.0, 1: 2.0}}, delta=20.0)

    def test_dbo_delivery_schedule_satisfies_condition(self):
        """Batching + pacing must satisfy the Corollary 1 condition."""
        specs = default_network_specs(3, seed=21)
        deployment = DBODeployment(specs, params=DBOParams(delta=20.0), seed=1)
        result = deployment.run(duration=3000.0)
        # Points in one batch share delivery times exactly; across batches
        # gaps exceed δ (up to clock-drift rescaling of the enforced gap).
        assert corollary1_condition_holds(
            result.delivery_times, delta=20.0 * (1 - 2e-4), tolerance=1e-6
        )

    def test_direct_delivery_violates_condition_under_jitter(self):
        specs = [
            NetworkSpec(
                forward=UniformJitterLatency(10.0, 8.0, seed=1),
                reverse=ConstantLatency(5.0),
            ),
            NetworkSpec(
                forward=UniformJitterLatency(10.0, 8.0, seed=2),
                reverse=ConstantLatency(5.0),
            ),
        ]
        from repro.exchange.feed import FeedConfig

        # Data every 10 µs: consecutive deliveries are < δ apart, so the
        # condition bites — and jitter makes the gaps unequal.
        deployment = build_deployment("direct", specs, feed_config=FeedConfig(interval=10.0))
        result = deployment.run(duration=3000.0)
        assert not corollary1_condition_holds(result.delivery_times, delta=20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            corollary1_condition_holds({}, delta=0.0)


class TestTheorem3:
    def test_lmin_is_max(self):
        assert theorem3_lmin([10.0, 30.0, 20.0]) == 30.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theorem3_lmin([])


class TestTheorem4:
    def test_guaranteed_when_margins_clear_bounds(self):
        assert theorem4_pair_guaranteed(
            rt_fast=5.0, rt_slow=12.0, delta=20.0, bh_fast=3.0, bl_slow=1.0
        )

    def test_not_guaranteed_when_margin_within_variability(self):
        # RT gap 2 < Bh - Bl = 4.
        assert not theorem4_pair_guaranteed(
            rt_fast=5.0, rt_slow=7.0, delta=20.0, bh_fast=5.0, bl_slow=1.0
        )

    def test_not_guaranteed_near_horizon(self):
        # RT must be below δ - Bh.
        assert not theorem4_pair_guaranteed(
            rt_fast=18.0, rt_slow=30.0, delta=20.0, bh_fast=3.0, bl_slow=1.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem4_pair_guaranteed(1.0, 2.0, delta=0.0, bh_fast=1.0, bl_slow=1.0)
        with pytest.raises(ValueError):
            theorem4_pair_guaranteed(1.0, 2.0, delta=5.0, bh_fast=-1.0, bl_slow=1.0)


class TestFairnessDefs:
    def test_dbo_run_has_no_violations(self):
        specs = default_network_specs(4, seed=22)
        deployment = DBODeployment(specs, seed=2)
        result = deployment.run(duration=3000.0)
        assert lrtf_violations(result, delta=20.0) == []
        assert causality_condition_violations(result) == []

    def test_direct_run_has_violations_on_skewed_network(self):
        specs = [
            NetworkSpec(forward=ConstantLatency(5.0), reverse=ConstantLatency(5.0)),
            NetworkSpec(forward=ConstantLatency(25.0), reverse=ConstantLatency(25.0)),
        ]
        deployment = build_deployment("direct", specs)
        result = deployment.run(duration=3000.0)
        violations = response_time_fairness_violations(result)
        assert violations
        text = str(violations[0])
        assert "ordered at" in text

    def test_lrtf_validation(self):
        specs = default_network_specs(2, seed=23)
        deployment = DBODeployment(specs, seed=3)
        result = deployment.run(duration=1000.0)
        with pytest.raises(ValueError):
            lrtf_violations(result, delta=0.0)
