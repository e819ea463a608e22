"""Tests for the online invariant auditor."""

import pytest

from repro.baselines.base import NetworkSpec
from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.messages import Heartbeat, Side, TaggedTrade, TradeOrder
from repro.experiments.runner import build_deployment
from repro.faults.auditor import AuditReport, InvariantAuditor, Violation
from repro.net.latency import ConstantLatency


def tagged(mp, seq, point, elapsed):
    order = TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0)
    return TaggedTrade(trade=order, clock=DeliveryClockStamp(point, elapsed))


def specs(n=3):
    return [
        NetworkSpec(forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i))
        for i in range(n)
    ]


class TestReportShape:
    def test_ok_distinguishes_safety_from_liveness(self):
        report = AuditReport(scheme="dbo")
        assert report.ok
        report.violations.append(Violation("progress_stall", 1.0, "queued"))
        assert report.ok  # liveness only
        assert report.liveness_events and not report.safety_violations
        report.violations.append(Violation("release_order", 2.0, "regressed"))
        assert not report.ok

    def test_to_dict_counts(self):
        report = AuditReport(scheme="dbo")
        report.violations.extend(
            [Violation("release_order", 1.0, "a"), Violation("release_order", 2.0, "b")]
        )
        doc = report.to_dict()
        assert doc["counts"] == {"release_order": 2}
        assert doc["ok"] is False
        assert len(doc["violations"]) == 2


class TestDetection:
    """Feed synthetic observations straight into the observer hooks."""

    def test_out_of_order_release_flagged(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_release(tagged("a", 0, 5, 10.0), 100.0)
        auditor._on_release(tagged("b", 0, 3, 2.0), 101.0)  # older stamp
        report = auditor.report()
        assert [v.kind for v in report.violations] == ["release_order"]
        assert report.violations[0].mp_id == "b"

    def test_monotone_releases_pass(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_release(tagged("a", 0, 1, 5.0), 100.0)
        auditor._on_release(tagged("b", 0, 1, 5.0), 101.0)  # equal is fine
        auditor._on_release(tagged("a", 1, 2, 0.0), 102.0)
        assert auditor.report().ok

    def test_duplicate_release_flagged(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_release(tagged("a", 0, 1, 5.0), 100.0)
        auditor._on_release(tagged("a", 0, 2, 6.0), 101.0)  # same key again
        assert [v.kind for v in auditor.report().violations] == ["duplicate_release"]

    def test_watermark_regression_flagged_per_participant(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(4, 1.0)), 50.0)
        auditor._on_heartbeat(Heartbeat("b", DeliveryClockStamp(2, 1.0)), 51.0)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(3, 9.0)), 52.0)  # back
        report = auditor.report()
        assert [v.kind for v in report.violations] == ["watermark_regression"]
        assert report.violations[0].mp_id == "a"

    def test_clockless_heartbeats_skipped(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_heartbeat(Heartbeat("a", None), 50.0)
        assert auditor.heartbeats_checked == 0


class TestAttachment:
    def test_cannot_attach_twice(self):
        auditor = InvariantAuditor()
        auditor.attach(DBODeployment(specs(), params=DBOParams(), seed=2))
        with pytest.raises(RuntimeError, match="already attached"):
            auditor.attach(DBODeployment(specs(), params=DBOParams(), seed=2))

    def test_cannot_attach_after_build(self):
        deployment = DBODeployment(specs(), params=DBOParams(), seed=2)
        deployment.run(duration=500.0)
        with pytest.raises(RuntimeError, match="before the deployment builds"):
            InvariantAuditor().attach(deployment)


class TestLiveRuns:
    def test_clean_dbo_run_audits_clean(self):
        deployment = DBODeployment(specs(), params=DBOParams(delta=20.0), seed=7)
        auditor = InvariantAuditor()
        auditor.attach(deployment)
        deployment.run(duration=5_000.0)
        report = auditor.report()
        assert report.ok
        assert report.violations == []
        assert report.releases_checked > 0
        assert report.heartbeats_checked > 0
        assert report.scheme == "dbo"

    def test_clean_direct_run_uses_matching_engine_fallback(self):
        deployment = build_deployment("direct", specs(), seed=7)
        auditor = InvariantAuditor()
        auditor.attach(deployment)
        deployment.run(duration=5_000.0)
        report = auditor.report()
        assert report.ok
        assert report.releases_checked > 0
        assert report.heartbeats_checked == 0  # no delivery clocks to watch

    def test_stall_probe_fires_when_ob_starves(self):
        # Crash mp1's RB without mitigation: its heartbeats stop, the OB
        # can never clear its queue, and the probe must notice.
        deployment = DBODeployment(
            specs(), params=DBOParams(delta=20.0, straggler_threshold=None), seed=7
        )
        auditor = InvariantAuditor(stall_timeout=2_000.0)
        auditor.attach(deployment)
        deployment.engine.schedule_at(
            2_000.0, lambda: deployment.release_buffers[1].crash()
        )
        deployment.run(duration=12_000.0)
        report = auditor.report()
        stalls = report.liveness_events
        assert len(stalls) == 1  # one episode, reported once
        assert "queued" in stalls[0].detail
        assert report.ok  # a stall is not a safety violation


class TestHeartbeatGap:
    def make(self, period=10.0, factor=4.0):
        return InvariantAuditor(
            stall_timeout=None,
            expected_heartbeat_period=period,
            heartbeat_gap_factor=factor,
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="expected_heartbeat_period"):
            InvariantAuditor(expected_heartbeat_period=0.0)
        with pytest.raises(ValueError, match="heartbeat_gap_factor"):
            InvariantAuditor(heartbeat_gap_factor=1.0)

    def test_disabled_by_default(self):
        auditor = InvariantAuditor(stall_timeout=None)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(1, 1.0)), 0.0)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(2, 1.0)), 1e6)
        assert auditor.report().violations == []

    def test_off_tempo_gap_flagged_once_per_episode(self):
        auditor = self.make()
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(1, 1.0)), 0.0)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(2, 1.0)), 100.0)
        auditor._on_heartbeat(Heartbeat("a", DeliveryClockStamp(3, 1.0)), 200.0)
        report = auditor.report()
        assert [v.kind for v in report.violations] == ["heartbeat_gap"]
        assert report.violations[0].mp_id == "a"
        # Liveness, not safety: the run is degraded, never unsafe.
        assert report.ok

    def test_new_episode_after_recovery_flagged_again(self):
        auditor = self.make()
        arrivals = [0.0, 100.0, 110.0, 120.0, 250.0]  # gap, on-tempo, gap
        for index, arrival in enumerate(arrivals):
            auditor._on_heartbeat(
                Heartbeat("a", DeliveryClockStamp(index + 1, 1.0)), arrival
            )
        assert [v.kind for v in auditor.report().violations] == [
            "heartbeat_gap", "heartbeat_gap",
        ]

    def test_gap_within_tolerance_not_flagged(self):
        auditor = self.make(period=10.0, factor=4.0)
        for index, arrival in enumerate([0.0, 12.0, 50.0, 90.0]):  # <= 4x period
            auditor._on_heartbeat(
                Heartbeat("a", DeliveryClockStamp(index + 1, 1.0)), arrival
            )
        assert auditor.report().violations == []

    def test_clockless_heartbeats_still_tracked_for_cadence(self):
        # Piggyback-suppressed (clockless) heartbeats keep the cadence
        # alive; the gap probe runs before the clock guard.
        auditor = self.make()
        auditor._on_heartbeat(Heartbeat("a", None), 0.0)
        auditor._on_heartbeat(Heartbeat("a", None), 100.0)
        assert [v.kind for v in auditor.report().violations] == ["heartbeat_gap"]
        assert auditor.heartbeats_checked == 0

    def test_live_drift_storm_surfaces_gap(self):
        # A crawling clock (5x slow cadence) must show up as a
        # heartbeat_gap liveness event while the run stays safe.
        from repro.core.params import AggregationTopology
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultSchedule, FaultSpec

        params = DBOParams(delta=20.0)
        deployment = DBODeployment(
            specs(4), params=params, seed=5,
            topology=AggregationTopology(fanout=2, depth=2),
        )
        plan = FaultSchedule.of(
            FaultSpec(kind="clock_drift", at=1_000.0, duration=5_000.0,
                      target="mp0", magnitude=-0.8)
        )
        FaultInjector(plan).arm(deployment)
        auditor = InvariantAuditor(
            expected_heartbeat_period=params.tau, heartbeat_gap_factor=4.0
        )
        auditor.attach(deployment)
        deployment.run(duration=8_000.0)
        report = auditor.report()
        assert report.ok
        gaps = [v for v in report.violations if v.kind == "heartbeat_gap"]
        assert gaps and all(v.mp_id == "mp0" for v in gaps)
