"""Differential harness: the heap engine against its reference oracle.

The repository ships one production event engine, the binary heap
(``heap``), and the seed-faithful :class:`ReferenceHeapEngine` oracle
(``reference``), which re-pushes every periodic tick the way components
once did by hand.  Their contract is *observational equivalence*: for
any workload they must execute callbacks in exactly the same order, so
every digest, audit report and channel odometer is byte-identical.

This harness pins that contract from three directions:

* **Scheme grid** — every scheme x scenario cell is run on both engines
  and the trade-ordering digest, invariant-audit report and per-channel
  odometers are compared.
* **Fault grid** — chaos plans (crash, failover, partition, duplication)
  are replayed per engine through the full injector/auditor pipeline;
  clean and faulted digests must both match.
* **Hypothesis oracle** — randomly generated schedule / cancel /
  periodic-timer programs are executed side by side on both engines and
  the complete fire logs (time, priority, label) must coincide — this
  covers FIFO-within-timestamp, priority ordering and tombstone
  semantics far beyond what the fixed scenarios reach.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.base import default_network_specs
from repro.experiments.chaos import make_plan, run_chaos
from repro.experiments.runner import build_deployment
from repro.faults.auditor import InvariantAuditor
from repro.metrics.serialization import trade_ordering_digest
from repro.sim.engine import ENGINE_FACTORIES, make_engine

# ``heap`` is the production engine; the grids run each cell on it and
# on every candidate and require identical observables.
BASELINE = "heap"
CANDIDATES = ["reference"]

SCHEMES = ["direct", "cloudex", "fba", "dbo", "libra", "prob"]

# (name, n_participants, seed, duration): one tiny cell, one with
# enough participants to exercise multi-way watermark races, and the
# degenerate single-participant exchange (no race at all).
SCENARIOS = [
    ("small", 4, 5, 5_000.0),
    ("medium", 8, 11, 4_000.0),
    ("single", 1, 5, 5_000.0),
]

# FBA's default 100 ms auction never fires inside these horizons.
SCHEME_KWARGS = {"fba": {"batch_interval": 1_000.0}}

# Chaos plans exercised per engine (dbo, N=4).  The selection covers a
# crash+recovery, a failover, a network partition and at-least-once
# duplication — the fault kinds with distinct scheduling footprints.
FAULT_PLANS = ["ob-crash", "ob-failover", "partition", "dup-delivery"]

_FAULT_DURATION = 6_000.0

# ---------------------------------------------------------------------------
# Cell runner (cached: each cell is executed once per engine)
# ---------------------------------------------------------------------------

_CELL_CACHE: Dict[Tuple, Tuple[str, dict, dict]] = {}


def run_cell(scheme: str, n: int, seed: int, duration: float, engine: str):
    """Run one clean cell; returns (digest, audit dict, channel odometers)."""
    key = (scheme, n, seed, duration, engine)
    cached = _CELL_CACHE.get(key)
    if cached is not None:
        return cached
    specs = default_network_specs(n, seed=seed)
    deployment = build_deployment(
        scheme, specs, seed=seed, engine=engine, **SCHEME_KWARGS.get(scheme, {})
    )
    auditor = InvariantAuditor()
    auditor.attach(deployment)
    result = deployment.run(duration=duration)
    out = (
        trade_ordering_digest(result),
        auditor.report().to_dict(),
        {name: dict(c) for name, c in sorted(result.channels.items())},
    )
    _CELL_CACHE[key] = out
    return out


_FAULT_CACHE: Dict[Tuple, Tuple[str, str, dict, dict]] = {}


def run_fault_cell(plan_name: str, engine: str):
    """Run one chaos cell; returns (clean digest, faulted digest, audits)."""
    key = (plan_name, engine)
    cached = _FAULT_CACHE.get(key)
    if cached is not None:
        return cached
    plan = make_plan(plan_name, _FAULT_DURATION, 4)
    report = run_chaos(
        "dbo",
        lambda: default_network_specs(4, seed=7),
        _FAULT_DURATION,
        plan,
        seed=7,
        engine=engine,
    )
    assert report.safe, report.faulted_audit.counts()
    out = (
        report.clean_digest,
        report.faulted_digest,
        report.clean_audit.to_dict(),
        report.faulted_audit.to_dict(),
    )
    _FAULT_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# Scheme grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", CANDIDATES)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s[0])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_cell_matches_heap(scheme, scenario, engine):
    _, n, seed, duration = scenario
    base_digest, base_audit, base_channels = run_cell(
        scheme, n, seed, duration, BASELINE
    )
    digest, audit, channels = run_cell(scheme, n, seed, duration, engine)
    assert digest == base_digest
    assert audit == base_audit
    assert channels == base_channels


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_participant_cell_completes(scheme):
    # N = 1: every watermark race is one-sided; each scheme must still
    # release every trade and settle before its drain cap.
    _, n, seed, duration = next(s for s in SCENARIOS if s[0] == "single")
    result = build_deployment(
        scheme, default_network_specs(n, seed=seed), seed=seed,
        **SCHEME_KWARGS.get(scheme, {}),
    ).run(duration=duration)
    assert result.trades and result.completion_ratio() == 1.0
    assert result.counters["settled_at"] < duration + 20_000.0


def test_grid_covers_every_scheme():
    from repro.experiments.registry import available_schemes

    assert set(SCHEMES) == set(available_schemes())


def test_all_production_engines_registered():
    assert set(ENGINE_FACTORIES) == {"heap", "reference"}


# ---------------------------------------------------------------------------
# Fault grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", CANDIDATES)
@pytest.mark.parametrize("plan_name", FAULT_PLANS)
def test_fault_cell_matches_heap(plan_name, engine):
    base = run_fault_cell(plan_name, BASELINE)
    candidate = run_fault_cell(plan_name, engine)
    assert candidate[0] == base[0], "clean-twin digest diverged"
    assert candidate[1] == base[1], "faulted digest diverged"
    assert candidate[2] == base[2], "clean audit diverged"
    assert candidate[3] == base[3], "faulted audit diverged"


# ---------------------------------------------------------------------------
# Hypothesis oracle: random engine programs vs ReferenceHeapEngine
# ---------------------------------------------------------------------------
#
# A program is a list of operations executed at increasing issue times.
# Each operation either schedules a one-shot event, cancels a previously
# scheduled live event, registers a periodic timer, or cancels a timer.
# The observable history is the fire log: (time, priority, label) per
# callback invocation, in execution order.  The reference engine is the
# oracle; the heap engine must reproduce its log exactly.

_one_shot = st.tuples(
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False, width=32),
    st.integers(min_value=-2, max_value=5),
)

# Timer anchors and periods are drawn on a dyadic grid: the reference
# oracle re-schedules ticks additively (seed-faithful), so only exactly
# representable partial sums make exact-fire-time comparison valid.
# (Production workloads hash trade *ordering*, which is ulp-robust; the
# oracle compares raw fire logs, which is stricter.)
_periodic = st.tuples(
    st.integers(min_value=0, max_value=480).map(lambda k: k / 8.0),
    st.integers(min_value=4, max_value=320).map(lambda k: k / 8.0),
    st.integers(min_value=-2, max_value=5),
)


@st.composite
def engine_programs(draw):
    """A mixed schedule/cancel program plus a run horizon."""
    ops: List[Tuple] = []
    n_ops = draw(st.integers(min_value=1, max_value=25))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["event", "event", "event", "timer", "cancel", "cancel_timer"]))
        if kind == "event":
            time, priority = draw(_one_shot)
            ops.append(("event", time, priority))
        elif kind == "timer":
            anchor, period, priority = draw(_periodic)
            ops.append(("timer", anchor, period, priority))
        elif kind == "cancel":
            ops.append(("cancel", draw(st.integers(min_value=0, max_value=30))))
        else:
            ops.append(("cancel_timer", draw(st.integers(min_value=0, max_value=10))))
    horizon = draw(st.floats(min_value=10.0, max_value=150.0, allow_nan=False, width=32))
    return ops, horizon


def _execute(engine_kind: str, ops, horizon: float) -> List[Tuple[float, int, str]]:
    """Run a program on one engine; returns the complete fire log."""
    engine = make_engine(engine_kind)
    log: List[Tuple[float, int, str]] = []
    handles: List = []
    timers: List = []

    def make_cb(label: str, priority: int):
        def cb() -> None:
            log.append((engine.now, priority, label))

        return cb

    for index, op in enumerate(ops):
        if op[0] == "event":
            _, time, priority = op
            handles.append(
                engine.schedule_at(time, make_cb(f"e{index}", priority), priority=priority)
            )
        elif op[0] == "timer":
            _, anchor, period, priority = op
            timers.append(
                engine.schedule_periodic(
                    anchor, period, make_cb(f"t{index}", priority), priority=priority
                )
            )
        elif op[0] == "cancel":
            _, pick = op
            live = [h for h in handles if not h.dead]
            if live:
                engine.cancel(live[pick % len(live)])
        else:
            _, pick = op
            live = [t for t in timers if t.active]
            if live:
                live[pick % len(live)].cancel()
    engine.run(until=horizon)
    return log


_oracle_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_oracle_settings
@given(program=engine_programs())
def test_heap_fire_log_matches_reference(program):
    ops, horizon = program
    assert _execute(BASELINE, ops, horizon) == _execute("reference", ops, horizon)


@_oracle_settings
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32),
        min_size=1,
        max_size=30,
    ),
    priority=st.integers(min_value=-2, max_value=5),
)
def test_fifo_within_timestamp(times, priority):
    """Same (time, priority) events fire in scheduling order on both engines."""

    def run(kind: str) -> List[str]:
        engine = make_engine(kind)
        log: List[str] = []
        for index, time in enumerate(times):
            engine.schedule_at(
                time, lambda i=index: log.append(f"e{i}"), priority=priority
            )
        engine.run()
        return log

    assert run(BASELINE) == run("reference")


@_oracle_settings
@given(program=engine_programs(), cut=st.floats(min_value=5.0, max_value=80.0))
def test_split_run_equals_single_run(program, cut):
    """run(until=a); run(until=b) is indistinguishable from run(until=b)."""
    ops, horizon = program
    if cut >= horizon:
        cut = horizon / 2.0

    def run_split(kind: str) -> List[Tuple[float, int, str]]:
        engine = make_engine(kind)
        log: List[Tuple[float, int, str]] = []
        for index, op in enumerate(ops):
            if op[0] == "event":
                _, time, priority = op
                engine.schedule_at(
                    time,
                    lambda p=priority, l=f"e{index}": log.append((engine.now, p, l)),
                    priority=priority,
                )
            elif op[0] == "timer":
                _, anchor, period, priority = op
                engine.schedule_periodic(
                    anchor,
                    period,
                    lambda p=priority, l=f"t{index}": log.append((engine.now, p, l)),
                    priority=priority,
                )
        engine.run(until=cut)
        engine.run(until=horizon)
        return log

    assert run_split(BASELINE) == run_split("reference")


@_oracle_settings
@given(
    n_events=st.integers(min_value=1, max_value=20),
    time=st.floats(min_value=1.0, max_value=40.0, allow_nan=False, width=32),
)
def test_cancel_from_callback_is_honoured(n_events, time):
    """A callback cancelling a later same-time event suppresses it."""

    def run(kind: str) -> List[int]:
        engine = make_engine(kind)
        log: List[int] = []
        handles: List = []

        def killer() -> None:
            log.append(-1)
            for h in handles:
                engine.cancel(h)

        engine.schedule_at(time, killer, priority=0)
        for index in range(n_events):
            handles.append(
                engine.schedule_at(time, lambda i=index: log.append(i), priority=1)
            )
        engine.run()
        return log

    assert run(BASELINE) == run("reference") == [-1]
