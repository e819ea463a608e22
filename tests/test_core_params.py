"""Unit tests for DBOParams and the other frozen parameter records."""

import math

import pytest

from repro.core.params import DBOParams, SupervisionPolicy
from repro.core.release_buffer import RetransmitPolicy


def test_paper_defaults():
    params = DBOParams()
    assert params.delta == 20.0
    assert params.kappa == 0.25
    assert params.tau == 20.0
    assert params.straggler_threshold is None


def test_batch_span():
    assert DBOParams(delta=20.0, kappa=0.25).batch_span == pytest.approx(25.0)
    assert DBOParams(delta=80.0, kappa=0.5).batch_span == pytest.approx(120.0)


def test_with_horizon_keeps_kappa():
    params = DBOParams(delta=20.0, kappa=0.25).with_horizon(45.0)
    assert params.delta == 45.0
    assert params.kappa == 0.25


def test_with_horizon_and_span_sets_kappa():
    params = DBOParams().with_horizon(80.0, batch_span=120.0)
    assert params.delta == 80.0
    assert params.batch_span == pytest.approx(120.0)
    assert params.kappa == pytest.approx(0.5)


def test_with_horizon_rejects_span_at_or_below_delta():
    with pytest.raises(ValueError):
        DBOParams().with_horizon(20.0, batch_span=20.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0},
        {"kappa": 0.0},
        {"kappa": -0.1},
        {"tau": 0.0},
        {"straggler_threshold": 0.0},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        DBOParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "record, field",
    [
        (DBOParams, "delta"),
        (DBOParams, "kappa"),
        (DBOParams, "tau"),
        (DBOParams, "straggler_threshold"),
        (SupervisionPolicy, "check_interval"),
        (SupervisionPolicy, "suspect_after"),
        (SupervisionPolicy, "probe_backoff"),
        (SupervisionPolicy, "warmup_timeout"),
        (RetransmitPolicy, "timeout"),
        (RetransmitPolicy, "backoff"),
        (RetransmitPolicy, "ack_latency"),
    ],
)
def test_non_finite_values_are_rejected(record, field, value):
    with pytest.raises(ValueError, match="finite"):
        record(**{field: value})


def test_frozen():
    params = DBOParams()
    with pytest.raises(Exception):
        params.delta = 5.0
