"""Tests for the chaos scenario family (experiments/chaos.py).

Pins the ISSUE acceptance criteria:

* chaos determinism — same seed + same plan ⇒ identical trade-ordering
  digest AND identical auditor report across two invocations;
* the auditor reports zero safety violations on fault-free runs for
  every registered scheme.
"""

import pytest

from repro.baselines.base import NetworkSpec
from repro.experiments.chaos import (
    CHAOS_PLANS,
    make_plan,
    run_chaos,
)
from repro.experiments.registry import available_schemes
from repro.experiments.runner import build_deployment
from repro.faults.auditor import InvariantAuditor
from repro.metrics.degradation import fairness_degradation
from repro.net.latency import ConstantLatency


def specs_factory(n=4):
    def factory():
        return [
            NetworkSpec(
                forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i)
            )
            for i in range(n)
        ]

    return factory


class TestPlans:
    def test_every_named_plan_instantiates(self):
        for name in CHAOS_PLANS:
            plan = make_plan(name, duration=10_000.0, n_participants=4)
            assert len(plan) >= 1
            assert plan.name == name
            # Scaled to the duration: nothing fires after the feed stops.
            assert all(f.at < 10_000.0 for f in plan)

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            make_plan("tsunami", 10_000.0, 4)


class TestRunChaos:
    def run_once(self, plan_name="link-flaky", **kwargs):
        plan = make_plan(plan_name, 8_000.0, 4)
        return run_chaos(
            "dbo", specs_factory(), duration=8_000.0, plan=plan, seed=5, **kwargs
        )

    def test_clean_twin_unaffected_by_faults(self):
        report = self.run_once()
        assert report.degradation.clean_completion == 1.0
        assert report.clean_audit.ok
        assert report.clean_audit.violations == []

    def test_smoke_plan_has_zero_safety_violations(self):
        report = self.run_once("link-flaky")
        assert report.safe
        assert report.faulted_audit.ok

    def test_determinism_across_invocations(self):
        first = self.run_once()
        second = self.run_once()
        assert first.clean_digest == second.clean_digest
        assert first.faulted_digest == second.faulted_digest
        assert first.faulted_audit.to_dict() == second.faulted_audit.to_dict()
        assert first.injector_summary == second.injector_summary
        assert first.to_dict() == second.to_dict()

    def test_faults_actually_fired(self):
        report = self.run_once()
        assert report.injector_summary["faults_fired"] == 2
        assert report.injector_summary["faults_recovered"] == 2

    def test_shard_plan_forces_shards(self):
        report = self.run_once("shard-loss")
        assert report.faulted.counters["shard_failures"] == 1

    def test_gateway_plan_forces_gateway(self):
        report = self.run_once("gateway-stall")
        assert report.faulted.counters["gateway_stalls"] == 1

    def test_to_dict_round_trips_to_json(self):
        import json

        doc = self.run_once().to_dict()
        json.dumps(doc)  # must be JSON-serializable as-is
        assert doc["safe"] is True


class TestFaultFreeAuditAllSchemes:
    def test_every_registered_scheme_audits_clean(self):
        factory = specs_factory()
        reports = {}
        for scheme in available_schemes():
            # FBA's default auction period exceeds the run; shorten it so
            # its matching engine actually sees trades.
            extra = {"batch_interval": 500.0} if scheme == "fba" else {}
            deployment = build_deployment(scheme, factory(), seed=3, **extra)
            auditor = InvariantAuditor()
            auditor.attach(deployment)
            deployment.run(duration=5_000.0)
            reports[scheme] = auditor.report()
        for scheme, report in reports.items():
            assert report.ok, f"{scheme}: {report.counts()}"
            assert report.violations == []
            assert report.releases_checked > 0, scheme


class TestDegradationReport:
    def test_scheme_mismatch_rejected(self):
        report = TestRunChaos().run_once()
        clean, faulted = report.clean, report.faulted
        faulted.scheme = "cloudex"
        with pytest.raises(ValueError, match="clean twin"):
            fairness_degradation(clean, faulted)

    def test_properties(self):
        report = TestRunChaos().run_once("latency-spike")
        deg = report.degradation
        assert deg.p99_inflation >= 1.0  # faults never improve p99 here
        assert deg.to_dict()["p99_inflation"] == deg.p99_inflation
        assert -5.0 <= deg.fairness_drop_pct <= 100.0


class TestDriftStorm:
    """The clock_drift satellite: ε-robustness must survive drift storms."""

    def run_once(self, **kwargs):
        plan = make_plan("drift-storm", 8_000.0, 4)
        return run_chaos(
            "dbo", specs_factory(), duration=8_000.0, plan=plan, seed=5, **kwargs
        )

    def test_storm_targets_one_subtree(self):
        # Even-index participants only: shard-0's round-robin subtree.
        plan = make_plan("drift-storm", 8_000.0, 6)
        assert [f.target for f in plan] == ["mp0", "mp2", "mp4"]
        assert all(f.kind == "clock_drift" for f in plan)
        assert all(f.ends_at is not None and f.ends_at < 8_000.0 for f in plan)

    def test_flat_run_stays_safe(self):
        report = self.run_once()
        assert report.safe
        assert report.injector_summary["faults_fired"] == 2
        assert report.injector_summary["faults_recovered"] == 2
        assert report.degradation.faulted_completion == 1.0

    def test_tree_run_stays_safe(self):
        from repro.core.params import AggregationTopology

        report = self.run_once(topology=AggregationTopology(fanout=2, depth=2))
        assert report.safe
        assert report.faulted_audit.safety_violations == []
        assert report.degradation.faulted_completion == 1.0

    def test_storm_is_deterministic(self):
        first = self.run_once()
        second = self.run_once()
        assert first.faulted_digest == second.faulted_digest
        assert first.to_dict() == second.to_dict()
