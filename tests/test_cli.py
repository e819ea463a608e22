"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "dbo"
        assert args.scenario == "cloud"
        assert args.participants == 10

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "quantum"])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_scheme_choices_track_registry(self):
        """Every --scheme/--schemes flag offers exactly the registered schemes.

        Registering a new scheme must surface it on the CLI without
        touching the parser; this test pins that the choices (and help
        text) are *derived* from the registry, not a hand-kept list.
        """
        import argparse

        from repro.experiments.registry import available_schemes, get_builder

        parser = build_parser()
        sub = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        expected = list(available_schemes())
        scheme_flags = described_flags = 0
        for subparser in set(sub.choices.values()):
            for action in subparser._actions:
                if action.dest in ("scheme", "schemes"):
                    assert list(action.choices) == expected
                    scheme_flags += 1
                    if f"{expected[0]}:" in (action.help or ""):
                        for name in expected:
                            assert get_builder(name).description in action.help
                        described_flags += 1
        assert scheme_flags >= 4  # run, compare, chaos, chaos-table
        assert described_flags >= 3  # run, compare, chaos carry full help

    def test_prob_scheme_accepts_horizon(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "prob", "--horizon", "4.5"]
        )
        assert args.scheme == "prob"
        assert args.horizon == 4.5
        # Unset, the `prob` registry row's horizon applies.
        assert build_parser().parse_args(["run"]).horizon is None

    def test_unset_knobs_keep_library_defaults(self):
        from repro.baselines.engine import batch_interval_for
        from repro.cli import _scheme_kwargs
        from repro.core.params import DBOParams

        args = build_parser().parse_args(["run", "--supervise"])
        for scheme in ("direct", "cloudex", "libra"):
            assert _scheme_kwargs(scheme, args) == {}
        # FBA's auction period scales to the run, as in chaos-table.
        assert _scheme_kwargs("fba", args) == {"batch_interval": batch_interval_for(args.duration)}
        for scheme in ("dbo", "prob"):
            kwargs = _scheme_kwargs(scheme, args)
            assert kwargs["params"] == DBOParams()
            assert "horizon" not in kwargs
            assert kwargs["supervision_policy"] == type(kwargs["supervision_policy"])()
        args = build_parser().parse_args(["run", "--c1", "7", "--window", "3"])
        assert _scheme_kwargs("cloudex", args) == {"c1": 7.0}
        assert _scheme_kwargs("libra", args) == {"window": 3.0}


class TestRun:
    def test_run_dbo_prints_digest(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--participants", "3",
             "--duration", "3000", "--seed", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dbo" in out
        assert "fairness" in out
        assert "max-rtt" in out

    def test_run_direct(self, capsys):
        code = main(
            ["run", "--scheme", "direct", "--participants", "3", "--duration", "3000"]
        )
        assert code == 0
        assert "direct" in capsys.readouterr().out

    def test_run_without_races_reports_na(self, capsys, monkeypatch):
        # A feed without opportunity ticks: no trades, so no pairs;
        # fairness is not a vacuous 100 %.  (An FBA auction past the end
        # of the run is a usage error instead: TestDeploymentErrors.)
        import functools

        import repro.cli as cli
        from repro.exchange.feed import FeedConfig

        monkeypatch.setattr(cli, "FeedConfig", functools.partial(FeedConfig, opportunity_fraction=0.0))
        code = main(["run", "--scheme", "fba", "--participants", "6", "--duration", "5000",
                     "--batch-interval", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness: fairness n/a (0/0 pairs over 0 races)" in out
        assert "completion: n/a (no trades)" in out
        assert "100.00" not in out

    def test_default_fba_run_trades(self, capsys):
        # Every option at its default: the auction period follows the
        # run, so the first auction's trades release inside it.
        for argv in (["run", "--scheme", "fba"], ["compare", "--schemes", "direct", "fba"]):
            assert main([*argv, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            summaries = doc["summaries"] if "summaries" in doc else [doc["summary"]]
            for summary in summaries:
                assert summary["latency"]["count"] > 0, summary["scheme"]
                assert summary["completion"] == 1.0, summary["scheme"]

    def test_run_with_race_gap(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--participants", "3",
             "--duration", "3000", "--race-gap", "0.1"]
        )
        assert code == 0
        assert "100.00" in capsys.readouterr().out

    def test_run_save_writes_json(self, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        code = main(
            ["run", "--scheme", "dbo", "--participants", "2",
             "--duration", "2000", "--save", path]
        )
        assert code == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["scheme"] == "dbo"
        assert data["trades"]

    def test_run_sync_assisted(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--participants", "2",
             "--duration", "2000", "--sync-c1", "30"]
        )
        assert code == 0
        assert "sync_targets_met" in capsys.readouterr().out

    def test_run_baremetal_scenario(self, capsys):
        code = main(
            ["run", "--scheme", "direct", "--scenario", "baremetal",
             "--participants", "2", "--duration", "3000"]
        )
        assert code == 0


class TestDeploymentErrors:
    """Options the deployment rejects end in one usage line, exit 2."""

    def error_of(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: error: ")
        return lines[0]

    def test_more_shards_than_participants(self, capsys):
        line = self.error_of(
            ["run", "--scheme", "dbo", "--participants", "8", "--ob-shards", "100"], capsys
        )
        assert "more shards than participants" in line

    def test_negative_horizon(self, capsys):
        line = self.error_of(["run", "--scheme", "prob", "--horizon", "-1"], capsys)
        assert "horizon must be non-negative" in line

    def test_prob_shards_are_not_dropped(self, capsys):
        line = self.error_of(
            ["run", "--scheme", "prob", "--participants", "8", "--ob-shards", "4"], capsys
        )
        assert "non-sharded" in line

    def test_prob_tree_is_not_dropped(self, capsys):
        line = self.error_of(["run", "--scheme", "prob", "--agg-depth", "2"], capsys)
        assert "aggregation-tree" in line

    def test_compare_builds_every_scheme_first(self, capsys):
        line = self.error_of(
            ["compare", "--schemes", "dbo", "prob", "--participants", "4", "--ob-shards", "2"],
            capsys,
        )
        assert "non-sharded" in line

    def test_chaos_build_error(self, capsys):
        line = self.error_of(
            ["chaos", "--scheme", "prob", "--plan", "shard-crash", "--participants", "4"],
            capsys,
        )
        assert "non-sharded" in line

    def test_non_positive_shard_count(self, capsys):
        line = self.error_of(["run", "--scheme", "dbo", "--ob-shards", "-2"], capsys)
        assert "n_ob_shards must be at least 1" in line

    def test_chaos_rejected_params(self, capsys):
        line = self.error_of(["chaos", "--plan", "link-flaky", "--tau", "0"], capsys)
        assert "tau must be positive" in line

    def test_chaos_rejected_supervision_policy(self, capsys):
        line = self.error_of(
            ["chaos", "--plan", "ob-crash", "--supervise", "--detector-window", "1"], capsys
        )
        assert "detector_window must be at least 2" in line

    def test_chaos_plan_file_with_unknown_target(self, tmp_path, capsys):
        from repro.faults.plan import FaultSchedule, FaultSpec

        path = tmp_path / "plan.json"
        path.write_text(FaultSchedule.of(FaultSpec(kind="rb_crash", at=1_000.0, target="mp99")).to_json())
        line = self.error_of(["chaos", "--faults", str(path), "--participants", "3"], capsys)
        assert "unknown participant 'mp99'" in line

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"faults": [{"kind": "rb_crash", "at": NaN, "target": "mp0", "duration": 100}]}',
             "trigger time must be non-negative and finite"),
            ('{"faults": [{"kind": "latency_degradation", "at": 100, "magnitude": NaN, "target": "mp0"}]}',
             "magnitude must be finite"),
            ('{"faults": [{"kind": "partition", "at": "soon", "target": "mp0", "duration": 5}]}',
             "malformed fault"),
            ("{not json", "Expecting property name"),
        ],
        ids=["nan-at", "nan-magnitude", "string-at", "bad-json"],
    )
    def test_chaos_malformed_plan_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "plan.json"
        path.write_text(text)
        line = self.error_of(["chaos", "--faults", str(path), "--participants", "3"], capsys)
        assert message in line

    def test_chaos_missing_plan_file(self, tmp_path, capsys):
        line = self.error_of(
            ["chaos", "--faults", str(tmp_path / "absent.json"), "--participants", "3"], capsys
        )
        assert "No such file" in line

    def test_chaos_tree_plan_on_a_baseline(self, capsys):
        line = self.error_of(["chaos", "--scheme", "direct", "--plan", "aggregator-crash"], capsys)
        assert "requires a DBO deployment" in line

    def test_chaos_single_shard_conflicts_with_shard_plan(self, capsys):
        line = self.error_of(["chaos", "--plan", "shard-loss", "--ob-shards", "1"], capsys)
        assert "shard_failure requires n_ob_shards > 1" in line

    @pytest.mark.parametrize(
        "scheme, knob, message",
        [
            ("fba", "--batch-interval", "fba releases its first trade at 100000 µs"),
            ("libra", "--window", "libra releases its first trade at 50000 µs"),
        ],
    )
    def test_first_release_past_the_run(self, capsys, scheme, knob, message):
        # The first trade release would fall after duration + drain
        # (2000 + 20000 µs): the run could only be vacuous.
        argv = ["--scheme", scheme, knob, "50000", "--duration", "2000", "--participants", "4"]
        line = self.error_of(["run", *argv], capsys)
        assert message in line and "after the run ends at 22000 µs" in line
        assert message in self.error_of(["compare", "--schemes", "direct", scheme, *argv[2:]], capsys)

    @pytest.mark.parametrize(
        "scheme, knob, value, message",
        [
            ("libra", "--window", "0", "window must be positive and finite"),
            ("fba", "--batch-interval", "nan", "batch_interval must be positive and finite"),
        ],
    )
    def test_boundary_period_must_be_positive_and_finite(self, capsys, scheme, knob, value, message):
        argv = ["--scheme", scheme, knob, value, "--duration", "2000", "--participants", "4"]
        assert message in self.error_of(["run", *argv], capsys)
        assert message in self.error_of(["compare", "--schemes", "direct", scheme, *argv[2:]], capsys)
        assert message in self.error_of(["chaos", *argv], capsys)

    @pytest.mark.parametrize(
        "knob, value, message",
        [
            ("--duration", "nan", "duration must be positive and finite"),
            ("--duration", "inf", "duration must be positive and finite"),
            ("--drain", "nan", "drain must be non-negative and finite"),
            ("--drain", "-5", "drain must be non-negative and finite"),
            ("--interval", "nan", "interval must be positive and finite"),
            ("--interval", "inf", "interval must be positive and finite"),
        ],
    )
    def test_horizon_and_feed_must_be_finite(self, tmp_path, capsys, knob, value, message):
        # Each of these used to run forever, stop at the end of the feed
        # or end in a traceback.  A named chaos plan is scaled to the
        # duration, so chaos takes a plan file here.
        from repro.faults.plan import FaultSchedule, FaultSpec

        path = tmp_path / "plan.json"
        path.write_text(FaultSchedule.of(FaultSpec(kind="rb_crash", at=500.0, target="mp0", duration=100.0)).to_json())
        argv = ["--participants", "3", knob, value]
        assert message in self.error_of(["run", *argv], capsys)
        assert message in self.error_of(["compare", *argv], capsys)
        assert message in self.error_of(["chaos", "--faults", str(path), *argv], capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "2", "--duration", "-1"], "duration must be positive and finite"),
            (["table", "2", "--duration", "0"], "duration must be positive and finite"),
            (["table", "3", "--duration", "inf"], "duration must be positive and finite"),
            (["figure", "13", "--duration", "nan"], "duration must be positive and finite"),
            (["figure", "7", "--duration", "0"], "duration must be positive and finite"),
            (["figure", "11", "--duration", "5000"], "takes no --duration"),
        ],
    )
    def test_table_and_figure_horizon(self, capsys, argv, message):
        # A bad horizon used to end in a traceback (negative, NaN), run the
        # default horizon (0) or be ignored (figure 11, a fixed trace).
        assert message in self.error_of(argv, capsys)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (["--duration", "nan"], "duration must be positive and finite"),
            (["--duration", "-5"], "duration must be positive and finite"),
            (["--participants", "0"], "need at least one participant"),
            (["--seeds", "0"], "need at least one seed"),
        ],
    )
    def test_chaos_table_validates_before_any_cell(self, capsys, monkeypatch, knobs, message):
        # Each used to print a table of n/a cells and exit 0, or end in a
        # traceback; now nothing runs.
        import repro.experiments.chaos_tables as chaos_tables

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(chaos_tables, "run_cells", no_cells)
        argv = ["chaos-table", "--schemes", "direct", "--plans", "partition", *knobs]
        assert message in self.error_of(argv, capsys)

    def test_prob_sync_c1_reaches_release_buffers(self, capsys):
        code = main(
            ["run", "--scheme", "prob", "--participants", "2",
             "--duration", "2000", "--sync-c1", "30"]
        )
        assert code == 0
        assert "sync_targets_met" in capsys.readouterr().out


class TestCompare:
    def test_compare_prints_all_schemes(self, capsys):
        code = main(
            ["compare", "--schemes", "direct", "dbo", "--participants", "3",
             "--duration", "3000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "direct" in out and "dbo" in out


class TestTableFigure:
    def test_table_2(self, capsys):
        code = main(["table", "2", "--duration", "8000"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_figure_11(self, capsys):
        code = main(["figure", "11"])
        assert code == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_figure_7(self, capsys):
        code = main(["figure", "7", "--duration", "40000"])
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out


class TestSweep:
    def test_sweep_delta(self, capsys):
        code = main(
            ["sweep", "--param", "delta", "--values", "10", "45",
             "--participants", "2", "--duration", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delta" in out
        assert "10.0" in out and "45.0" in out

    def test_sweep_passes_drain(self, capsys):
        def table(*drain):
            argv = ["sweep", "--values", "10", "20", "--participants", "4",
                    "--duration", "2000", *drain]
            assert main(argv) == 0
            return capsys.readouterr().out

        assert table("--drain", "1") != table()

    def test_sweep_tau(self, capsys):
        code = main(
            ["sweep", "--param", "tau", "--values", "5", "40",
             "--participants", "2", "--duration", "2000"]
        )
        assert code == 0
        assert "tau" in capsys.readouterr().out


class TestReproduce:
    def test_quick_reproduction_writes_all_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "repro_out")
        code = main(["reproduce", "--out", out, "--quick"])
        assert code == 0
        import os

        names = sorted(os.listdir(out))
        assert names == [
            "figure10.txt", "figure11.txt", "figure12.txt", "figure13.txt",
            "figure2.txt", "figure7.txt",
            "table2.txt", "table3.txt", "table4.txt",
        ]
        with open(os.path.join(out, "table3.txt")) as handle:
            assert "dbo" in handle.read()


class TestScenarioCoverage:
    def test_multizone_via_cli(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--scenario", "multizone",
             "--participants", "2", "--duration", "2000"]
        )
        assert code == 0

    def test_trace_via_cli(self, capsys):
        code = main(
            ["run", "--scheme", "direct", "--scenario", "trace",
             "--participants", "2", "--duration", "2000"]
        )
        assert code == 0


class TestJsonOutput:
    def test_run_json_document(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--participants", "2",
             "--duration", "2000", "--seed", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 4
        assert doc["engine"] == "heap"
        assert doc["summary"]["scheme"] == "dbo"
        assert 0.0 <= doc["summary"]["fairness"]["ratio"] <= 1.0
        assert doc["summary"]["latency"]["count"] > 0
        assert len(doc["trade_ordering_digest"]) == 64

    def test_run_json_with_save(self, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        code = main(
            ["run", "--scheme", "direct", "--participants", "2",
             "--duration", "2000", "--json", "--save", path]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["saved_to"] == path
        with open(path) as handle:
            assert json.load(handle)["scheme"] == "direct"

    def test_compare_json_document(self, capsys):
        code = main(
            ["compare", "--schemes", "direct", "dbo", "--participants", "2",
             "--duration", "2000", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [s["scheme"] for s in doc["summaries"]] == ["direct", "dbo"]
        assert set(doc["trade_ordering_digests"]) == {"direct", "dbo"}

    def test_json_is_deterministic_across_runs(self, capsys):
        argv = ["run", "--scheme", "dbo", "--participants", "2",
                "--duration", "2000", "--seed", "4", "--json"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_run_reference_engine_flag(self, capsys):
        code = main(
            ["run", "--scheme", "dbo", "--participants", "2",
             "--duration", "2000", "--seed", "4", "--engine", "reference", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["engine"] == "reference"
        assert doc["summary"]["latency"]["count"] > 0

    @pytest.mark.parametrize("removed", ["wheel", "calendar"])
    def test_run_rejects_removed_engine(self, removed, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "dbo", "--engine", removed])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestChaos:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.plan == "link-flaky"
        assert args.scheme == "dbo"
        assert args.faults is None

    def test_chaos_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--plan", "tsunami"])

    def test_chaos_smoke_plan_passes_fail_on_violation(self, capsys):
        code = main(
            ["chaos", "--plan", "link-flaky", "--participants", "3",
             "--duration", "6000", "--seed", "4", "--fail-on-violation"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fire" in out and "recover" in out
        assert "clean twin" in out and "degradation" in out

    def test_chaos_json_document(self, capsys):
        code = main(
            ["chaos", "--plan", "ob-failover", "--participants", "3",
             "--duration", "6000", "--seed", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        chaos = doc["chaos"]
        assert chaos["safe"] is True
        assert chaos["plan"]["name"] == "ob-failover"
        assert chaos["degradation"]["fault_counters"]["ob_failovers"] == 1.0
        assert len(chaos["clean_digest"]) == 64

    def test_chaos_passes_drain(self, capsys):
        def clean_digest(*drain):
            argv = ["chaos", "--participants", "4", "--duration", "2000", "--json", *drain]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)["chaos"]["clean_digest"]

        assert clean_digest("--drain", "1") != clean_digest()

    def test_chaos_from_plan_file(self, tmp_path, capsys):
        from repro.faults.plan import FaultSchedule, FaultSpec

        plan = FaultSchedule.of(
            FaultSpec(kind="partition", at=1_500.0, duration=800.0, target="mp0"),
            name="file-plan",
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code = main(
            ["chaos", "--faults", str(path), "--participants", "3",
             "--duration", "6000", "--seed", "4", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chaos"]["plan"]["name"] == "file-plan"

    @pytest.mark.parametrize(
        "plan", ["ob-failover", "ob-crash", "shard-loss", "shard-crash", "aggregator-crash",
                 "gateway-stall"],
    )
    def test_cli_builds_run_chaos_plane(self, plan, monkeypatch):
        """``repro chaos`` builds the ordering plane ``run_chaos`` defaults
        to for the plan, whatever endpoints the plan crashes."""
        import repro.experiments.chaos as chaos_mod
        from repro.experiments.runner import build_deployment
        from repro.experiments.scenarios import cloud_specs

        class Captured(Exception):
            pass

        built = []

        def capture(scheme, specs, **kwargs):
            built.append(kwargs)
            raise Captured  # stop before the twins run

        monkeypatch.setattr(chaos_mod, "build_deployment", capture)
        with pytest.raises(Captured):
            main(["chaos", "--plan", plan, "--participants", "4", "--duration", "6000"])
        defaults = chaos_mod.chaos_kwargs("dbo", chaos_mod.make_plan(plan, 6_000.0, 4), {})

        def endpoints(kwargs):
            deployment = build_deployment("dbo", cloud_specs(4, seed=12), **kwargs)
            deployment._build()
            return sorted(deployment.endpoints)

        assert endpoints(built[0]) == endpoints(defaults)

    def test_congested_scenario_available(self):
        args = build_parser().parse_args(["run", "--scenario", "congested"])
        assert args.scenario == "congested"


class TestChaosTable:
    ARGS = ["chaos-table", "--schemes", "direct", "dbo", "--plans", "partition",
            "--seeds", "2", "--participants", "3", "--duration", "2500",
            "--seed", "11"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos-table"])
        assert args.schemes is None  # None = every registered scheme
        assert args.plans is None
        assert args.seeds == 3
        assert args.jobs == 1
        assert args.participants == 4
        assert args.duration == 6_000.0

    def test_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-table", "--plans", "tsunami"])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-table", "--schemes", "quantum"])

    def test_renders_table_and_digest(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "direct" in out and "dbo" in out
        assert "table digest: " in out

    def test_json_document(self, capsys):
        code = main(self.ARGS + ["--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["cells"]) == 4  # 2 schemes x 1 plan x 2 seeds
        assert len(doc["entries"]) == 2
        assert len(doc["table_digest"]) == 64
        for entry in doc["entries"]:
            low, high = entry["clean_fairness"]["ci"]
            assert 0.0 <= low <= high <= 1.0

    def test_jobs_flag_does_not_change_output(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--json", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_na_rows_listed(self, capsys):
        code = main(["chaos-table", "--schemes", "direct", "--plans",
                     "ob-failover", "--seeds", "1", "--participants", "3",
                     "--duration", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n/a cells" in out
        assert "requires a DBO deployment" in out
