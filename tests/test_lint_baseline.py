"""Per-line suppression comments — the one way to accept a finding — and
the file walk.  (The committed baseline file these tests once sat beside
is gone; the module keeps its name so the test ids stay stable.)"""

import pytest

from repro.lint import collect_suppressions, lint_paths, lint_source
from repro.lint.suppressions import is_suppressed

SRC = "src/repro/core/example.py"


class TestSuppressions:
    def test_coded_suppression_silences_that_rule(self):
        src = "import time\nstart = time.time()  # dbo: ignore[DBO101]\n"
        assert lint_source(src, path=SRC) == []

    def test_coded_suppression_leaves_other_rules(self):
        src = (
            "import time\n"
            "import random\n"
            "start = time.time() + random.random()  # dbo: ignore[DBO101]\n"
        )
        assert [f.code for f in lint_source(src, path=SRC)] == ["DBO102"]

    def test_blanket_suppression_silences_everything(self):
        src = (
            "import time\n"
            "import random\n"
            "start = time.time() + random.random()  # dbo: ignore\n"
        )
        assert lint_source(src, path=SRC) == []

    def test_multiple_codes_in_one_comment(self):
        src = (
            "import time\n"
            "import random\n"
            "start = time.time() + random.random()  # dbo: ignore[DBO101, DBO102]\n"
        )
        assert lint_source(src, path=SRC) == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nstart = time.time()  # dbo: ignore[DBO102]\n"
        assert [f.code for f in lint_source(src, path=SRC)] == ["DBO101"]

    def test_suppression_is_line_local(self):
        src = (
            "import time\n"
            "a = time.time()  # dbo: ignore[DBO101]\n"
            "b = time.time()\n"
        )
        findings = lint_source(src, path=SRC)
        assert [(f.code, f.line) for f in findings] == [("DBO101", 3)]

    def test_comment_inside_string_is_not_a_suppression(self):
        src = (
            "import time\n"
            'label = "# dbo: ignore[DBO101]"\n'
            "start = time.time()\n"
        )
        assert [f.code for f in lint_source(src, path=SRC)] == ["DBO101"]

    def test_collect_suppressions_table(self):
        src = "x = 1  # dbo: ignore[DBO103]\ny = 2  # dbo: ignore\n"
        table = collect_suppressions(src)
        assert is_suppressed(table, 1, "DBO103")
        assert not is_suppressed(table, 1, "DBO101")
        assert is_suppressed(table, 2, "DBO101")
        assert not is_suppressed(table, 3, "DBO101")


class TestLintPaths:
    def _tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "dirty.py").write_text("import time\nstart = time.time()\n")
        (pkg / "clean.py").write_text("def ok():\n    return 1\n")
        cache = pkg / "__pycache__"
        cache.mkdir()
        (cache / "dirty.cpython-311.py").write_text("import time\nt = time.time()\n")
        return tmp_path

    def test_walk_finds_findings_with_relative_paths(self, tmp_path):
        root = self._tree(tmp_path)
        run = lint_paths([str(root / "src")], root=str(root))
        assert run.checked_files == 2  # __pycache__ skipped
        assert [f.path for f in run.findings] == ["src/repro/core/dirty.py"]

    def test_missing_path_is_usage_error(self, tmp_path):
        from repro.lint import LintUsageError

        with pytest.raises(LintUsageError):
            lint_paths([str(tmp_path / "nope")], root=str(tmp_path))

    def test_deterministic_output(self, tmp_path):
        root = self._tree(tmp_path)
        runs = [lint_paths([str(root / "src")], root=str(root)) for _ in range(2)]
        assert [f.to_dict() for f in runs[0].findings] == [
            f.to_dict() for f in runs[1].findings
        ]
