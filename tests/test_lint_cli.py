"""`repro lint` CLI: flags, exit codes, JSON shape, and the self-gate.

The last class is the repo's own gate: linting ``src``, ``benchmarks``
and ``examples`` must find nothing (per-line suppressions are the only
way to accept a finding) — the same invocation CI runs.
"""

import json
import os

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree(tmp_path, dirty=True):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    body = "import time\nstart = time.time()\n" if dirty else "x = 1\n"
    (pkg / "mod.py").write_text(body)
    return tmp_path


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.paths == []
        assert args.root == "."
        assert not args.json

    def test_lint_accepts_paths_and_flags(self):
        args = build_parser().parse_args(
            ["lint", "src", "--select", "DBO101,DBO103", "--json"]
        )
        assert args.paths == ["src"]
        assert args.select == "DBO101,DBO103"
        assert args.json


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _tree(tmp_path, dirty=False)
        code = main(["lint", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_dirty_tree_exits_one(self, tmp_path, capsys):
        root = _tree(tmp_path)
        code = main(["lint", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DBO101" in out
        assert "src/repro/core/mod.py:2" in out

    def test_json_report_shape(self, tmp_path, capsys):
        root = _tree(tmp_path)
        code = main(["lint", "--root", str(root), "--json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        # Version 2: no baseline, so no baselined findings or fingerprints.
        assert document["version"] == 2
        assert not {"baselined", "baselined_count"} & set(document)
        assert document["exit_code"] == 1
        assert document["counts"] == {"DBO101": 1}
        (finding,) = document["findings"]
        assert finding["code"] == "DBO101"
        assert finding["path"] == "src/repro/core/mod.py"
        assert finding["line"] == 2
        assert not {"baselined", "fingerprint"} & set(finding)
        assert "DBO101" in document["rules"]
        assert len(document["rules"]) == 9

    def test_json_output_is_byte_stable(self, tmp_path, capsys):
        root = _tree(tmp_path)
        main(["lint", "--root", str(root), "--json"])
        first = capsys.readouterr().out
        main(["lint", "--root", str(root), "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_select_restricts_rules(self, tmp_path, capsys):
        root = _tree(tmp_path)
        code = main(["lint", "--root", str(root), "--select", "DBO103"])
        assert code == 0
        capsys.readouterr()

    def test_unknown_select_code_exits_two(self, tmp_path, capsys):
        root = _tree(tmp_path)
        code = main(["lint", "--root", str(root), "--select", "DBO999"])
        assert code == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_root_exits_two(self, tmp_path, capsys):
        code = main(["lint", "--root", str(tmp_path / "empty")])
        assert code == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ["DBO101", "DBO105", "DBO109"]:
            assert code in out

    def test_explicit_file_path(self, tmp_path, capsys):
        root = _tree(tmp_path)
        target = str(root / "src" / "repro" / "core" / "mod.py")
        code = main(["lint", "--root", str(root), target])
        assert code == 1
        capsys.readouterr()


class TestSelfGate:
    """The repo lints itself clean — the exact invocation CI runs."""

    @pytest.mark.parametrize("tree", ["src", "benchmarks", "examples"])
    def test_tree_is_clean_against_baseline(self, tree, capsys):
        path = os.path.join(REPO_ROOT, tree)
        if not os.path.isdir(path):  # pragma: no cover - partial checkouts
            pytest.skip(f"{tree} not present")
        code = main(["lint", "--root", REPO_ROOT, path])
        output = capsys.readouterr().out
        assert code == 0, f"lint findings in {tree}:\n{output}"

    def test_full_gate_json(self, capsys):
        code = main(["lint", "--root", REPO_ROOT, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0, document["findings"]
        assert document["findings"] == []
        assert document["checked_files"] > 100
