"""Drives the observatory in ``--smoke`` mode and checks what it emits.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/observatory``
(about half a minute; deliberately not part of the tier-1 ``testpaths``).
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as observatory  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("observatory") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads(out.read_text())


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/observatory"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert set(PINS["full"]) == set(PINS["smoke"]) == set(WORKLOADS)


def test_emitted_schema_matches_benchmark_json(smoke):
    _, result = smoke
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for entry in result["workloads"].values():
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        values = [row["median"] for row in entry["end_to_end"].values()]
        values += [row["value"] for row in entry["per_layer"].values()]
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        assert all(row["median"] > 0 for row in entry["end_to_end"].values())


def test_pins_hold_and_traced_digest_equals_untraced(smoke):
    _, result = smoke
    assert result["correct"]
    for name, entry in result["workloads"].items():
        pin = PINS["smoke"][name]
        assert entry["correct"] and entry["ops_failed"] == 0
        assert (entry["digest"], entry["ops_attempted"]) == (pin["digest"], pin["ops_attempted"])
        assert entry["end_to_end"]["fairness_ratio"]["median"] == pytest.approx(pin["fairness_ratio"], rel=1e-9)
        reference, *traced = entry["trace"]["cycles"]
        assert traced and all(cycle["digest"] == reference["digest"] for cycle in traced)
        assert entry["trace"]["targets_missing"] == []


def test_layer_account_closes(smoke):
    _, result = smoke
    for entry in result["workloads"].values():
        rows = entry["per_layer"]
        assert all(rows[f"{layer}.self_s"]["value"] >= 0 for layer in LAYERS)
        assert sum(rows[f"{layer}.share"]["value"] for layer in LAYERS) == pytest.approx(1.0, abs=0.02)
        assert rows["sim.engine.events"]["value"] > 0 and rows["trace.overhead_ratio"]["value"] > 1.0


def test_timeline_spans_nest_under_their_parents(smoke):
    _, result = smoke
    timeline = result["workloads"]["dbo-n64-flat"]["trace"]["timeline"]
    assert timeline and any(span["parent"] is not None for span in timeline)
    for index, span in enumerate(timeline):
        assert span["end_us"] >= span["start_us"]
        if span["parent"] is not None:
            parent = timeline[span["parent"]]
            assert span["parent"] < index
            assert parent["start_us"] <= span["start_us"] and span["end_us"] <= parent["end_us"]


def test_compare_a_result_with_itself(smoke, capsys):
    out, _ = smoke
    assert compare.compare_files(str(out), str(out)) == 0
    assert "REGRESSION" not in capsys.readouterr().out


def test_compare_verdicts():
    steady = compare.summarize([10.0, 10.1, 10.2])
    noisy = compare.summarize([8.0, 10.0, 12.0])
    assert compare.verdict(steady, compare.summarize([10.3, 10.4, 10.5]), "lower", 0.10) == "same"
    assert compare.verdict(steady, compare.summarize([11.5, 11.6, 11.7]), "lower", 0.10) == "worse"
    assert compare.verdict(steady, compare.summarize([11.5, 11.6, 11.7]), "higher", 0.10) == "better"
    assert compare.verdict(noisy, compare.summarize([9.0, 11.0, 13.0]), "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy, compare.summarize([5.0, 6.0, 7.0]), "lower", 0.10) == "better"


def test_gate_trips_on_an_edited_pin(smoke):
    _, result = smoke
    cycle = result["workloads"]["dbo-n64-flat"]["trace"]["cycles"][0]
    pin = PINS["smoke"]["dbo-n64-flat"]
    assert observatory.check_cycles([cycle], pin) == []
    assert observatory.check_cycles([cycle], {**pin, "digest": "0" * 64})
    assert observatory.check_cycles([cycle], {**pin, "trade_latency_p99_us": pin["trade_latency_p99_us"] + 1.0})
    assert observatory.check_cycles([{**cycle, "failed": 1}], pin)


def _copy_benchmark(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "observatory", ignore=shutil.ignore_patterns("__pycache__"))


def _unit(tmp_path, *extra):
    """One driver-style unit of the first workload, run in ``tmp_path``."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seconds", "1", "--trace", "0", *extra],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_fails_without_printing_where_there_is_no_simulator(tmp_path):
    _copy_benchmark(tmp_path)
    done = _unit(tmp_path, "--seed", "1")
    assert done.returncode != 0 and done.stdout == ""


def test_command_exits_nonzero_on_an_edited_pin(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = _unit(tmp_path, "--seed", "7", "--smoke")
    assert done.returncode == 0 and json.loads(done.stdout.splitlines()[-1])["correct"], done.stderr[-2000:]
    pins = tmp_path / "benchmarks" / "observatory" / "pins.json"
    edited = json.loads(pins.read_text())
    edited["smoke"][WORKLOADS[0]]["digest"] = "0" * 64
    pins.write_text(json.dumps(edited))
    done = _unit(tmp_path, "--seed", "7", "--smoke")
    assert done.returncode != 0 and "pin digest" in done.stderr
    assert not json.loads(done.stdout.splitlines()[-1])["correct"]
