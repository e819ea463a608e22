"""Unit tests for the declarative fault plan (FaultSpec / FaultSchedule)."""

import json

import pytest

from repro.faults.plan import FAULT_KINDS, FaultSchedule, FaultSpec


class TestFaultSpecValidation:
    def test_minimal_valid_specs(self):
        FaultSpec(kind="link_burst_loss", at=10.0, duration=5.0, target="mp0",
                  magnitude=0.5)
        FaultSpec(kind="latency_degradation", at=0.0, duration=5.0, target="mp1",
                  magnitude=100.0)
        FaultSpec(kind="partition", at=1.0, duration=2.0, target="mp0")
        FaultSpec(kind="rb_crash", at=1.0, target="mp0")
        FaultSpec(kind="ob_failover", at=1.0)
        FaultSpec(kind="shard_failure", at=1.0, target="shard-0")
        FaultSpec(kind="gateway_stall", at=1.0, duration=3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", at=0.0)

    def test_negative_trigger_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="ob_failover", at=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field, base, message",
        [
            ("at", {"kind": "rb_crash", "target": "mp0", "duration": 10.0}, "trigger time"),
            ("duration", {"kind": "partition", "at": 1.0, "target": "mp0"}, "duration"),
            ("magnitude", {"kind": "latency_degradation", "at": 1.0, "target": "mp0"}, "magnitude"),
            ("magnitude", {"kind": "clock_drift", "at": 1.0, "target": "mp0"}, "magnitude"),
            ("factor", {"kind": "latency_degradation", "at": 1.0, "target": "mp0"}, "factor"),
        ],
        ids=["at", "duration", "degradation-magnitude", "drift-magnitude", "factor"],
    )
    def test_non_finite_fields_rejected(self, field, base, message, value):
        with pytest.raises(ValueError, match=message):
            FaultSpec(**{**base, field: value})

    def test_non_finite_fields_rejected_at_load(self):
        with pytest.raises(ValueError, match="trigger time"):
            FaultSchedule.from_json('{"faults": [{"kind": "ob_failover", "at": NaN}]}')

    def test_non_numeric_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="malformed fault"):
            FaultSchedule.from_dict({"faults": [{"kind": "ob_failover", "at": "soon"}]})

    def test_duration_required_for_window_kinds(self):
        for kind in ("link_burst_loss", "partition", "gateway_stall"):
            with pytest.raises(ValueError, match="duration"):
                FaultSpec(kind=kind, at=0.0, target="mp0", magnitude=0.5)

    def test_instantaneous_kinds_reject_duration(self):
        with pytest.raises(ValueError, match="no duration"):
            FaultSpec(kind="ob_failover", at=0.0, duration=5.0)
        with pytest.raises(ValueError, match="no duration"):
            FaultSpec(kind="shard_failure", at=0.0, duration=5.0, target="shard-0")

    def test_target_required_for_link_kinds(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="partition", at=0.0, duration=1.0)
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="rb_crash", at=0.0)

    def test_burst_magnitude_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="link_burst_loss", at=0.0, duration=1.0, target="mp0",
                      magnitude=0.0)
        with pytest.raises(ValueError):
            FaultSpec(kind="link_burst_loss", at=0.0, duration=1.0, target="mp0",
                      magnitude=1.5)

    def test_latency_degradation_must_change_something(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="latency_degradation", at=0.0, duration=1.0,
                      target="mp0", magnitude=0.0, factor=1.0)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            FaultSpec(kind="partition", at=0.0, duration=1.0, target="mp0",
                      direction="sideways")

    def test_ends_at(self):
        spec = FaultSpec(kind="partition", at=10.0, duration=5.0, target="mp0")
        assert spec.ends_at == 15.0
        assert FaultSpec(kind="ob_failover", at=10.0).ends_at is None


class TestSerialization:
    def test_round_trip_preserves_specs(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="rb_crash", at=20.0, duration=10.0, target="mp1"),
            FaultSpec(kind="link_burst_loss", at=5.0, duration=3.0, target="mp0",
                      magnitude=0.25, direction="both", seed=9),
            name="round-trip",
        )
        clone = FaultSchedule.from_json(plan.to_json())
        assert clone == plan
        assert clone.name == "round-trip"
        # of() sorts by trigger time.
        assert [f.at for f in clone] == [5.0, 20.0]

    def test_to_dict_is_sparse(self):
        doc = FaultSpec(kind="ob_failover", at=3.0).to_dict()
        assert doc == {"kind": "ob_failover", "at": 3.0}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultSpec.from_dict({"kind": "ob_failover", "at": 1.0, "blast_radius": 3})

    def test_load_from_file(self, tmp_path):
        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=4.0, duration=2.0, target="mp2"),
            name="disk",
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultSchedule.load(str(path)) == plan

    def test_json_is_actual_json(self):
        plan = FaultSchedule.of(FaultSpec(kind="ob_failover", at=1.0))
        doc = json.loads(plan.to_json())
        assert doc["faults"][0]["kind"] == "ob_failover"


class TestSchedule:
    def test_sorted_by_trigger_time(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="ob_failover", at=30.0),
            FaultSpec(kind="rb_crash", at=10.0, target="mp0"),
            FaultSpec(kind="rb_crash", at=20.0, duration=5.0, target="mp1"),
        )
        assert [f.at for f in plan] == [10.0, 20.0, 30.0]
        assert len(plan) == 3

    def test_kinds(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="rb_crash", at=10.0, target="mp0"),
            FaultSpec(kind="ob_failover", at=30.0),
        )
        assert set(plan.kinds) == {"rb_crash", "ob_failover"}

    def test_all_kinds_registered(self):
        assert FAULT_KINDS == {
            "link_burst_loss", "latency_degradation", "partition",
            "rb_crash", "ob_failover", "shard_failure", "gateway_stall",
            "duplicate_delivery", "clock_drift", "aggregator_failure",
            "ces_hiccup",
        }


class TestChannelAddressing:
    def test_channel_address_accepted_for_link_kinds(self):
        spec = FaultSpec(kind="link_burst_loss", at=0.0, duration=1.0,
                         channel="ack-mp0", magnitude=0.5)
        assert spec.channel == "ack-mp0"
        FaultSpec(kind="partition", at=0.0, duration=1.0, channel="egress")
        FaultSpec(kind="latency_degradation", at=0.0, duration=1.0,
                  channel="agg-shard-0", magnitude=50.0)

    def test_channel_rejected_for_non_channel_kinds(self):
        with pytest.raises(ValueError, match="does not address a channel"):
            FaultSpec(kind="rb_crash", at=0.0, channel="rev-mp0")
        with pytest.raises(ValueError, match="does not address a channel"):
            FaultSpec(kind="ob_failover", at=0.0, channel="ob-adopt")

    def test_channel_and_target_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            FaultSpec(kind="partition", at=0.0, duration=1.0, target="mp0",
                      channel="fwd-mp0")

    def test_duplicate_delivery_needs_channel_or_target(self):
        with pytest.raises(ValueError, match="target or a channel"):
            FaultSpec(kind="duplicate_delivery", at=0.0, duration=1.0,
                      magnitude=0.5)

    def test_duplicate_delivery_magnitude_bounds(self):
        for magnitude in (0.0, 1.5):
            with pytest.raises(ValueError, match="magnitude"):
                FaultSpec(kind="duplicate_delivery", at=0.0, duration=1.0,
                          channel="rev-mp0", magnitude=magnitude)

    def test_duplicate_delivery_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="duplicate_delivery", at=0.0, channel="rev-mp0",
                      magnitude=0.5)

    def test_channel_round_trips_through_json(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="duplicate_delivery", at=5.0, duration=3.0,
                      channel="rev-mp0", magnitude=0.4, seed=7),
            name="dup",
        )
        clone = FaultSchedule.from_json(plan.to_json())
        assert clone == plan
        assert clone.faults[0].channel == "rev-mp0"

    def test_to_dict_omits_absent_channel(self):
        doc = FaultSpec(kind="partition", at=1.0, duration=2.0,
                        target="mp0").to_dict()
        assert "channel" not in doc


class TestClockDriftSpec:
    def test_valid_spec_accepted(self):
        spec = FaultSpec(kind="clock_drift", at=10.0, duration=50.0,
                         target="mp0", magnitude=0.05)
        assert spec.ends_at == 60.0

    def test_permanent_drift_allowed(self):
        spec = FaultSpec(kind="clock_drift", at=10.0, target="mp0",
                         magnitude=-0.5)
        assert spec.ends_at is None

    def test_target_required(self):
        with pytest.raises(ValueError, match="requires a target"):
            FaultSpec(kind="clock_drift", at=10.0, magnitude=0.05)

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ValueError, match="change the drift rate"):
            FaultSpec(kind="clock_drift", at=10.0, target="mp0", magnitude=0.0)

    def test_backwards_clock_rejected(self):
        with pytest.raises(ValueError, match="exceed -1"):
            FaultSpec(kind="clock_drift", at=10.0, target="mp0", magnitude=-1.0)

    def test_channel_address_rejected(self):
        with pytest.raises(ValueError, match="does not address a channel"):
            FaultSpec(kind="clock_drift", at=10.0, channel="rev-mp0",
                      magnitude=0.05)

    def test_round_trips_through_json(self):
        plan = FaultSchedule.of(
            FaultSpec(kind="clock_drift", at=5.0, duration=3.0, target="mp1",
                      magnitude=-0.8),
            name="drift",
        )
        assert FaultSchedule.from_json(plan.to_json()) == plan


class TestNewFaultKinds:
    def test_aggregator_failure_spec(self):
        spec = FaultSpec(kind="aggregator_failure", at=10.0, target="agg1-0")
        assert spec.ends_at is None

    def test_aggregator_failure_needs_target_and_no_duration(self):
        with pytest.raises(ValueError, match="requires a target"):
            FaultSpec(kind="aggregator_failure", at=10.0)
        with pytest.raises(ValueError, match="no duration"):
            FaultSpec(kind="aggregator_failure", at=10.0, duration=5.0,
                      target="agg1-0")

    def test_ces_hiccup_spec(self):
        spec = FaultSpec(kind="ces_hiccup", at=10.0, duration=20.0)
        assert spec.ends_at == 30.0

    def test_ces_hiccup_is_global_and_windowed(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="ces_hiccup", at=10.0)
        with pytest.raises(ValueError, match="no target"):
            FaultSpec(kind="ces_hiccup", at=10.0, duration=20.0, target="mp0")

    def test_partition_accepts_channel_glob(self):
        spec = FaultSpec(kind="partition", at=10.0, duration=5.0,
                         channel="ack-*")
        assert spec.channel == "ack-*"


class TestFromTrace:
    def _trace(self, values, step=10.0):
        from repro.net.trace import NetworkTrace
        times = tuple(index * step for index in range(len(values)))
        return NetworkTrace(times=times, values=tuple(values))

    def test_excursions_become_latency_windows(self):
        trace = self._trace([1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 5.0, 1.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0, target="mp0",
                                        direction="both", name="storm")
        assert plan.name == "storm"
        assert [f.kind for f in plan] == ["latency_degradation"] * 2
        first, second = plan.faults
        # First excursion: samples at t=20,30 above threshold, closed at 40.
        assert first.at == 20.0
        assert first.duration == 20.0
        # Extra one-way latency is half the peak excess (trace is RTT).
        assert first.magnitude == pytest.approx((9.0 - 2.0) / 2.0)
        assert second.at == 60.0
        assert second.magnitude == pytest.approx((5.0 - 2.0) / 2.0)

    def test_trailing_excursion_closed_at_trace_end(self):
        trace = self._trace([1.0, 8.0, 8.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0, target="mp0")
        assert len(plan) == 1
        assert plan.faults[0].at == 10.0
        assert plan.faults[0].duration == 10.0

    def test_default_threshold_is_p95(self):
        values = [1.0] * 99 + [100.0]
        trace = self._trace(values)
        plan = FaultSchedule.from_trace(trace, target="mp0")
        assert len(plan) == 1
        assert plan.faults[0].magnitude == pytest.approx(
            (100.0 - trace.percentile(95.0)) / 2.0
        )

    def test_channel_addressing_and_exclusivity(self):
        trace = self._trace([1.0, 9.0, 1.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0,
                                        channel="rev-mp0")
        assert plan.faults[0].channel == "rev-mp0"
        with pytest.raises(ValueError, match="exactly one"):
            FaultSchedule.from_trace(trace, threshold=2.0)
        with pytest.raises(ValueError, match="exactly one"):
            FaultSchedule.from_trace(trace, threshold=2.0, target="mp0",
                                     channel="rev-mp0")

    def test_quiet_trace_yields_empty_plan(self):
        trace = self._trace([1.0, 1.0, 1.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0, target="mp0")
        assert len(plan) == 0

    def test_scale_applies_to_magnitude(self):
        trace = self._trace([1.0, 6.0, 1.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0, target="mp0",
                                        scale=0.5)
        assert plan.faults[0].magnitude == pytest.approx(0.5 * (6.0 - 2.0) / 2.0)

    def test_derived_plan_round_trips_through_json(self):
        trace = self._trace([1.0, 9.0, 1.0, 7.0])
        plan = FaultSchedule.from_trace(trace, threshold=2.0, target="mp2",
                                        direction="both", name="replay")
        assert FaultSchedule.from_json(plan.to_json()) == plan
