"""Tests for the "Table 5" chaos degradation matrix (experiments/chaos_tables.py)
and the engine-backed parallel matrix runner underneath it."""

import json

import pytest

from repro.experiments.chaos_tables import build_cells, chaos_table
from repro.parallel import CellSpec, cell_seed, run_cells

SMALL = dict(
    schemes=["direct", "dbo"],
    plans=["link-flaky", "partition"],
    n_seeds=2,
    base_seed=7,
    participants=3,
    duration=3_000.0,
)


@pytest.fixture(scope="module")
def small_table():
    return chaos_table(**SMALL)


class TestBuildCells:
    def test_row_major_shape(self):
        cells = build_cells(["direct", "dbo"], ["link-flaky"], 3, base_seed=1)
        assert len(cells) == 6
        assert [c.scheme for c in cells] == ["direct"] * 3 + ["dbo"] * 3

    def test_seed_substreams_are_per_cell(self):
        cells = build_cells(["direct", "dbo"], ["link-flaky", "partition"], 2)
        seeds = [c.seed for c in cells]
        assert len(set(seeds)) == len(seeds)  # no collisions in practice
        # And fully determined by coordinates, not position:
        assert seeds[0] == cell_seed(0, "direct", "cloud", "link-flaky", 0)

    def test_fba_gets_scaled_batch_interval(self):
        (cell,) = build_cells(["fba"], ["partition"], 1, duration=4_000.0)
        assert cell.scheme_kwargs["batch_interval"] == 500.0

    def test_scheme_kwargs_override(self):
        (cell,) = build_cells(
            ["fba"], ["partition"], 1, scheme_kwargs={"fba": {"batch_interval": 99.0}}
        )
        assert cell.scheme_kwargs["batch_interval"] == 99.0

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            build_cells(["dbo"], ["partition"], 0)


class TestChaosTable:
    def test_entry_grid_is_complete(self, small_table):
        pairs = [(e.scheme, e.plan) for e in small_table.entries]
        assert pairs == [
            ("direct", "link-flaky"),
            ("direct", "partition"),
            ("dbo", "link-flaky"),
            ("dbo", "partition"),
        ]
        assert all(e.n_ok == 2 for e in small_table.entries)

    def test_wilson_cis_bound_the_ratio(self, small_table):
        for entry in small_table.entries:
            for pooled in (entry.clean_fairness, entry.faulted_fairness):
                low, high = pooled["ci"]
                assert 0.0 <= low <= pooled["ratio"] <= high <= 1.0
            assert entry.p99_inflation_mean >= 1.0

    def test_dbo_survives_what_direct_does_not(self, small_table):
        by_key = {(e.scheme, e.plan): e for e in small_table.entries}
        dbo = by_key[("dbo", "link-flaky")]
        direct = by_key[("direct", "link-flaky")]
        assert dbo.faulted_fairness["ratio"] == 1.0
        assert direct.faulted_fairness["ratio"] < 1.0

    def test_render_and_digest(self, small_table):
        text = small_table.render()
        assert "Table 5" in text
        assert "clean fairness % [95% CI]" in text
        assert "dbo" in text and "direct" in text
        assert len(small_table.digest()) == 64

    def test_to_dict_json_round_trip(self, small_table):
        doc = small_table.to_dict()
        json.dumps(doc)  # must be JSON-serializable as-is
        assert doc["table_digest"] == small_table.digest()
        assert len(doc["cells"]) == 8
        assert len(doc["entries"]) == 4

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos plan"):
            chaos_table(schemes=["dbo"], plans=["tsunami"], n_seeds=1)

    def test_inapplicable_combo_becomes_na_entry(self):
        table = chaos_table(
            schemes=["direct"],
            plans=["ob-failover"],
            n_seeds=1,
            participants=3,
            duration=2_000.0,
        )
        (entry,) = table.entries
        assert not entry.applicable
        assert "requires a DBO deployment" in entry.error
        assert "n/a" in table.render()
        json.dumps(table.to_dict())


class TestParallelEqualsSerial:
    def test_jobs2_table_is_byte_identical(self, small_table):
        parallel = chaos_table(**SMALL, jobs=2)
        assert parallel.digest() == small_table.digest()
        assert parallel.to_dict() == small_table.to_dict()

    def test_engine_cells_with_error_cell(self):
        cells = [
            CellSpec(scheme="dbo", seed=5, plan="partition",
                     participants=3, duration=2_000.0),
            # Inapplicable: captured as an error, not a crash.
            CellSpec(scheme="direct", seed=5, plan="rb-outage",
                     participants=3, duration=2_000.0),
            CellSpec(scheme="direct", seed=6, plan=None,
                     participants=3, duration=2_000.0),
        ]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert [r.ok for r in serial] == [True, False, True]
        assert "rb_crash requires a DBO deployment" in serial[1].error
        # Plain (plan=None) cells carry a summary instead of a degradation.
        assert serial[2].summary["scheme"] == "direct"
        assert serial[2].degradation is None
        assert serial[2].clean_pairs[1] > 0

    def test_unknown_scenario_captured_per_cell(self):
        (result,) = run_cells(
            [CellSpec(scheme="dbo", seed=1, scenario="atlantis", duration=1_000.0)]
        )
        assert not result.ok
        assert "unknown scenario" in result.error


class TestOneFairnessEvaluationPerRun:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The runs handed to ``evaluate_fairness``, wherever it was imported."""
        import sys

        from repro.metrics import fairness

        plain, seen = fairness.evaluate_fairness, []

        def counting(result):
            seen.append(result)
            return plain(result)

        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attribute, value in list(vars(module).items()):
                    if value is plain:
                        monkeypatch.setattr(module, attribute, counting)
        return seen

    def test_faulted_cell_evaluates_each_twin_once(self, evaluated):
        from repro.parallel import run_cell

        result = run_cell(CellSpec(scheme="dbo", seed=5, plan="partition",
                                   participants=3, duration=2_000.0))
        assert len(evaluated) == 2 and evaluated[0] is not evaluated[1]
        # The pair counts and the percentages come from the same reports.
        for pairs, pct in ((result.clean_pairs, "clean_fairness_pct"),
                           (result.faulted_pairs, "faulted_fairness_pct")):
            assert pairs[1] > 0
            assert result.degradation[pct] == 100.0 * pairs[0] / pairs[1]

    def test_plain_cell_evaluates_its_run_once(self, evaluated):
        from repro.parallel import run_cell

        result = run_cell(CellSpec(scheme="direct", seed=6, plan=None,
                                   participants=3, duration=2_000.0))
        assert len(evaluated) == 1
        assert result.summary["fairness"]["total_pairs"] == result.clean_pairs[1] > 0


class TestKnownHazards:
    """A scripted shard failure *without* a retransmit policy stays in
    stamp order.

    These two cells once released out of stamp order (``release_order:
    2``, ``safe=False``): the orphans' trades reached their adopter after
    it had already vouched for later stamps, because the ``shard``
    playbook froze the adopter's path to the master only when the
    orphans resent.  The freeze-fence now runs on every adoption, so
    both cells are safe and the faulted twins misorder no pair the clean
    twin does not (shard-loss keeps the clean twin's one 2.3 ns drift
    pair).  Only the dead shard's queue is lost, as §4.2.1 accepts.  The
    test keeps its historical name so its pinned id stays stable.
    """

    @pytest.mark.parametrize(
        "plan_name, seed, digest",
        [
            (
                "shard-loss",
                123139792,
                "804751e908e08570086e1bfdd2400448c5970de14ac71978413e3d669749db11",
            ),
            (
                "shard-crash",
                2728269741,
                "b54fdafc864a03ea9f531cafa17534bb5db41d16405afd162186dfa20cbcd58b",
            ),
        ],
    )
    def test_shard_failure_without_retransmit_misorders(self, plan_name, seed, digest):
        from repro.exchange.feed import FeedConfig
        from repro.experiments.chaos import make_plan, run_chaos
        from repro.experiments.scenarios import cloud_specs

        report = run_chaos(
            "dbo",
            lambda: cloud_specs(8, seed=seed),
            duration=6_000.0,
            plan=make_plan(plan_name, 6_000.0, 8),
            seed=seed,
            engine="heap",
            feed_config=FeedConfig(interval=40.0),
        )
        assert report.safe is True
        assert report.clean_audit.counts() == {}
        assert report.faulted_audit.counts() == {}
        assert report.faulted_digest == digest
