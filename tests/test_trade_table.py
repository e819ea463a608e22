"""The run's trade table: a read-only ``Sequence[TradeRecord]`` over typed
columns, assembled once from the participants' and the matching engine's
columns.

The differential checks rebuild each record the per-record way — one
``TradeRecord`` per submitted trade, its ``F`` and ``O`` read through the
matching engine's ``forward_time_of`` / ``position_of`` — and hold every
metric on the table to the same metric on a plain list of those records
and to a per-record reference.
"""

import copy
import dataclasses
import hashlib
import math
from itertools import combinations

import pytest

from repro.baselines.base import default_network_specs
from repro.experiments.chaos import chaos_kwargs, make_plan
from repro.experiments.registry import get_builder
from repro.faults.injector import FaultInjector
from repro.metrics.fairness import causality_violations, evaluate_fairness, pairwise_correct
from repro.metrics.latency import max_rtt_bound_per_trade, trade_latencies
from repro.metrics.records import RunResult, TradeRecord, TradeTable
from repro.metrics.serialization import run_result_to_dict, trade_ordering_digest
from repro.sim.runtime import Runtime


def record(mp, seq, trigger=0, rt=5.0, s=0.0, f=None, pos=None):
    return TradeRecord(mp, seq, trigger, rt, s, forward_time=f, position=pos)


RECORDS = [
    record("b", 0, trigger=3, rt=7.5, s=1.0, f=20.0, pos=1),
    record("a", 0, trigger=3, rt=-0.0, s=2.0, f=21.0, pos=0),
    record("b", 1, trigger=4, rt=6.0, s=3.0),  # in flight
    record("a", 1, trigger=4, rt=5.0, s=4.0, f=30.0),  # forwarded, no position
    record("a", 2, trigger=5, rt=5.0, s=5.0, pos=2),  # a position, no forward time
]


class TestTradeTable:
    def test_round_trips_every_field_and_none(self):
        table = TradeTable.from_records(RECORDS)
        assert list(table) == RECORDS
        assert [table[row] for row in range(len(table))] == RECORDS
        assert math.copysign(1.0, table[1].response_time) == -1.0

    def test_is_a_read_only_sequence(self):
        table = TradeTable.from_records(RECORDS)
        assert len(table) == 5 and table and not TradeTable.from_records([])
        assert table[-1] == RECORDS[-1]
        assert table[1:3] == RECORDS[1:3]
        with pytest.raises(IndexError):
            table[5]
        assert RECORDS[2] in table
        assert table.index(RECORDS[3]) == 3
        with pytest.raises(TypeError):
            table[0] = RECORDS[0]
        with pytest.raises(TypeError):
            hash(table)

    def test_equality_and_deepcopy(self):
        table = TradeTable.from_records(RECORDS)
        assert table == RECORDS and table == TradeTable.from_records(RECORDS)
        assert table != RECORDS[:-1] and table != list(reversed(RECORDS))
        assert table != 42
        clone = copy.deepcopy(table)
        assert clone == table and clone.positions is not table.positions

    def test_intake_is_position_order(self):
        table = TradeTable.from_records(RECORDS)
        # Rows holding a position, by position; a forward time alone is not one.
        assert list(table.intake) == [1, 0, 4]

    def test_run_result_converts_a_list_once(self):
        result = RunResult("test", list(RECORDS), {}, {}, {}, {})
        assert isinstance(result.trades, TradeTable)
        assert result.trades == RECORDS
        assert list(result.completed_rows) == [0, 1]
        assert result.completed_trades == RECORDS[:2]
        assert result.trades_by_trigger() == {3: RECORDS[:2]}
        assert {k: list(v) for k, v in result.rows_by_trigger().items()} == {3: [0, 1]}
        assert result.completion_ratio() == 0.4
        # A table is taken as it is.
        assert RunResult("test", result.trades, {}, {}, {}, {}).trades is result.trades


# ----------------------------------------------------------------------
# Assembly against the per-record join
# ----------------------------------------------------------------------
def build(scheme, **kwargs):
    specs = default_network_specs(4, seed=7)
    return get_builder(scheme).build(specs, runtime=Runtime.create(seed=7), **kwargs)


def per_record_assembly(deployment):
    """One record per submitted trade, participant by participant in seq
    order, ``F`` and ``O`` read through the matching engine's accessors."""
    me = deployment.ces.matching_engine
    records = []
    for mp in deployment.participants:
        for seq in range(mp.trades_submitted):
            key = (mp.mp_id, seq)
            records.append(
                TradeRecord(
                    mp.mp_id, seq, mp.trigger_points[seq], mp.response_times[seq],
                    mp.submission_times[seq],
                    forward_time=me.forward_time_of(key), position=me.position_of(key),
                )
            )
    return records


def faulted():
    plan = make_plan("ob-crash", 3000.0, 4)
    deployment = build("dbo", **chaos_kwargs("dbo", plan, {}))
    FaultInjector(plan).arm(deployment)
    return deployment


RUNS = {
    "dbo": lambda: build("dbo"),
    "direct": lambda: build("direct"),
    "cloudex": lambda: build("cloudex"),
    "fba": lambda: build("fba", batch_interval=500.0),
    "libra": lambda: build("libra"),
    "dbo-ob-crash": faulted,
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    deployment = RUNS[request.param]()
    result = deployment.run(duration=3000.0, drain=2000.0)
    return request.param, deployment, result


def reference_fairness(records):
    correct = total = 0
    for a, b in combinations(records, 2):
        verdict = pairwise_correct(a, b)
        if verdict is not None:
            correct += verdict
            total += 1
    return correct, total


def reference_latencies(records, generation_times):
    return [
        t.forward_time - generation_times[t.trigger_point] - t.response_time
        for t in records
        if t.completed and t.trigger_point in generation_times
    ]


def reference_digest(records):
    ordered = sorted((t for t in records if t.position is not None), key=lambda t: t.position)
    payload = "".join(f"{t.mp_id}:{t.trade_seq}:{t.position};" for t in ordered)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class TestAssembly:
    def test_table_equals_the_per_record_join(self, run):
        name, deployment, result = run
        records = per_record_assembly(deployment)
        assert len(records) > 100
        assert list(result.trades) == records
        if name == "dbo-ob-crash":
            # Trades lost with the crashed OB: their F and O stay None.
            lost = [t for t in records if t.position is None]
            assert lost and all(t.forward_time is None for t in lost)

    def test_metrics_agree_on_table_list_and_records(self, run):
        _, deployment, result = run
        records = per_record_assembly(deployment)
        listed = dataclasses.replace(result, trades=records)
        assert isinstance(listed.trades, TradeTable) and listed.trades is not result.trades
        report = evaluate_fairness(result)
        assert report == evaluate_fairness(listed)
        assert (report.correct_pairs, report.total_pairs) == reference_fairness(records)
        assert report.unordered_trades == sum(not t.completed for t in records)
        latencies = trade_latencies(result)
        assert latencies == trade_latencies(listed)
        assert latencies == reference_latencies(records, result.generation_times)
        digest = trade_ordering_digest(result)
        assert digest == trade_ordering_digest(listed) == reference_digest(records)
        assert causality_violations(result) == causality_violations(listed)
        assert max_rtt_bound_per_trade(result) == max_rtt_bound_per_trade(listed)
        assert run_result_to_dict(result) == run_result_to_dict(listed)
        assert result.completed_trades == [t for t in records if t.completed]
