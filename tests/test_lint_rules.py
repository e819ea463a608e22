"""Per-rule coverage: every DBO1xx rule has a firing fixture and a near-miss.

Each case lints an in-memory snippet via :func:`repro.lint.lint_source`
under a path chosen to satisfy the rule's scoping (wall clocks only
matter inside ``src/repro``, unordered iteration only in the
digest-sensitive layers, ...).
"""

import textwrap

import pytest

from repro.lint import REGISTRY, all_rules, lint_source, rule_codes

SRC = "src/repro/core/example.py"
DIGEST = "src/repro/metrics/example.py"
BENCH = "benchmarks/test_example.py"


def codes(source, path=SRC):
    return [f.code for f in lint_source(textwrap.dedent(source), path=path)]


class TestRegistry:
    def test_nine_rules_registered(self):
        assert rule_codes() == [
            "DBO101",
            "DBO102",
            "DBO103",
            "DBO104",
            "DBO105",
            "DBO106",
            "DBO107",
            "DBO108",
            "DBO109",
        ]

    def test_every_rule_documents_summary_and_invariant(self):
        for rule in all_rules():
            assert rule.summary, rule.code
            assert rule.invariant, rule.code

    def test_parse_error_is_dbo100(self):
        findings = lint_source("def broken(:\n", path=SRC)
        assert [f.code for f in findings] == ["DBO100"]


class TestDBO101WallClock:
    def test_time_time_fires(self):
        assert "DBO101" in codes("import time\nstart = time.time()\n")

    def test_perf_counter_alias_fires(self):
        src = "from time import perf_counter as pc\nstamp = pc()\n"
        assert "DBO101" in codes(src)

    def test_datetime_now_fires(self):
        src = "from datetime import datetime\nwhen = datetime.now()\n"
        assert "DBO101" in codes(src)

    def test_engine_clock_is_clean(self):
        src = "def handler(engine):\n    return engine.now\n"
        assert codes(src) == []

    def test_out_of_scope_in_benchmarks(self):
        # Benchmarks measure *real* elapsed time; the rule is scoped to src/.
        src = "import time\nwall = time.perf_counter()\n"
        assert codes(src, path=BENCH) == []


class TestDBO102AmbientRandom:
    def test_random_module_call_fires(self):
        assert "DBO102" in codes("import random\nx = random.random()\n")

    def test_numpy_random_alias_fires(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "DBO102" in codes(src)

    def test_from_import_fires(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert "DBO102" in codes(src)

    def test_substream_draw_is_clean(self):
        src = (
            "from repro.sim.randomness import stable_unit\n"
            "x = stable_unit(7, 1, 2)\n"
        )
        assert codes(src) == []


class TestDBO103UnorderedIteration:
    def test_set_literal_iteration_fires(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        assert "DBO103" in codes(src, path=DIGEST)

    def test_dict_items_iteration_fires(self):
        src = "def f(d):\n    return [k for k, v in d.items()]\n"
        assert "DBO103" in codes(src, path=DIGEST)

    def test_sorted_wrap_is_clean(self):
        src = "def f(d):\n    return [k for k, v in sorted(d.items())]\n"
        assert codes(src, path=DIGEST) == []

    def test_comprehension_feeding_sorted_is_clean(self):
        # The consumer re-imposes an order; the iteration order is moot.
        src = "def f(d):\n    return sorted(v for k, v in d.items())\n"
        assert codes(src, path=DIGEST) == []

    def test_out_of_scope_module_is_clean(self):
        src = "for x in {3, 1, 2}:\n    print(x)\n"
        assert codes(src, path="src/repro/core/example.py") == []


class TestDBO104ProcessBoundary:
    def test_lambda_fires(self):
        src = (
            "from repro.parallel.pool import parallel_map\n"
            "out = parallel_map(lambda item: item + 1, [1, 2], jobs=2)\n"
        )
        assert "DBO104" in codes(src)

    def test_nested_function_fires(self):
        src = textwrap.dedent(
            """
            from repro.parallel.pool import parallel_map

            def sweep(items):
                def worker(item):
                    return item + 1
                return parallel_map(worker, items, jobs=2)
            """
        )
        assert "DBO104" in codes(src)

    def test_bound_method_fires(self):
        src = textwrap.dedent(
            """
            from repro.parallel.pool import parallel_map

            def sweep(runner, items):
                return parallel_map(runner.run_one, items, jobs=2)
            """
        )
        assert "DBO104" in codes(src)

    def test_module_level_function_is_clean(self):
        src = textwrap.dedent(
            """
            from repro.parallel.pool import parallel_map

            def worker(item):
                return item + 1

            def sweep(items):
                return parallel_map(worker, items, jobs=2)
            """
        )
        assert codes(src) == []

    def test_module_attribute_function_is_clean(self):
        src = textwrap.dedent(
            """
            import repro.parallel.matrix as matrix
            from repro.parallel.pool import parallel_map

            def sweep(cells):
                return parallel_map(matrix.run_cell, cells, jobs=2)
            """
        )
        assert codes(src) == []

    def test_pool_map_lambda_fires(self):
        src = textwrap.dedent(
            """
            def fan_out(pool, items):
                return pool.map(lambda item: item * 2, items)
            """
        )
        assert "DBO104" in codes(src)


class TestDBO105SchedulerBypass:
    def test_engine_heap_access_fires(self):
        src = "def cheat(engine, entry):\n    engine._heap.append(entry)\n"
        assert "DBO105" in codes(src)

    def test_runtime_engine_attribute_fires(self):
        src = "def cheat(runtime):\n    return runtime.engine._heap[0]\n"
        assert "DBO105" in codes(src)

    def test_public_api_is_clean(self):
        src = "def ok(engine, cb):\n    engine.schedule_after(5.0, cb)\n"
        assert codes(src) == []

    def test_own_private_state_is_clean(self):
        src = (
            "class Thing:\n"
            "    def push(self, x):\n"
            "        self._heap.append(x)\n"
        )
        assert codes(src) == []

    def test_engine_module_itself_exempt(self):
        src = "def _push(engine, e):\n    engine._heap.append(e)\n"
        assert codes(src, path="src/repro/sim/engine.py") == []


class TestDBO106MutableDefaults:
    def test_list_default_fires(self):
        assert "DBO106" in codes("def handler(evt, seen=[]):\n    seen.append(evt)\n")

    def test_dict_call_default_fires(self):
        assert "DBO106" in codes("def handler(evt, state=dict()):\n    pass\n")

    def test_none_default_is_clean(self):
        assert codes("def handler(evt, seen=None):\n    pass\n") == []

    def test_dataclass_mutable_field_fires(self):
        src = textwrap.dedent(
            """
            from dataclasses import dataclass

            @dataclass
            class Cell:
                tags: list = []
            """
        )
        assert "DBO106" in codes(src)

    def test_dataclass_default_factory_is_clean(self):
        src = textwrap.dedent(
            """
            from dataclasses import dataclass, field

            @dataclass
            class Cell:
                tags: list = field(default_factory=list)
            """
        )
        assert codes(src) == []


class TestDBO107FloatTimeEquality:
    def test_time_attribute_equality_fires(self):
        src = "def check(evt, engine):\n    return evt.release_time == engine.now\n"
        assert "DBO107" in codes(src)

    def test_not_equals_fires(self):
        src = "def check(a, b):\n    return a.deadline != b.deadline\n"
        assert "DBO107" in codes(src)

    def test_ordering_comparison_is_clean(self):
        src = "def check(evt, engine):\n    return evt.release_time <= engine.now\n"
        assert codes(src) == []

    def test_non_time_name_is_clean(self):
        src = "def check(a, b):\n    return a.price == b.price\n"
        assert codes(src) == []

    def test_none_comparison_is_clean(self):
        src = "def check(evt):\n    return evt.release_time == None\n"
        assert codes(src) == []

    def test_out_of_scope_in_benchmarks(self):
        src = "def check(a, b):\n    return a.release_time == b.release_time\n"
        assert codes(src, path=BENCH) == []


class TestDBO108BroadExcept:
    def test_bare_except_fires(self):
        src = "try:\n    step()\nexcept:\n    pass\n"
        assert "DBO108" in codes(src)

    def test_swallowing_broad_except_fires(self):
        src = "try:\n    step()\nexcept Exception:\n    count = 1\n"
        assert "DBO108" in codes(src)

    def test_unused_binding_fires(self):
        src = "try:\n    step()\nexcept Exception as exc:\n    count = 1\n"
        assert "DBO108" in codes(src)

    def test_structured_capture_is_clean(self):
        src = textwrap.dedent(
            """
            try:
                step()
            except Exception as exc:
                record(type(exc).__name__, str(exc))
            """
        )
        assert codes(src) == []

    def test_reraise_is_clean(self):
        src = "try:\n    step()\nexcept Exception:\n    raise\n"
        assert codes(src) == []

    def test_narrow_except_is_clean(self):
        src = "try:\n    step()\nexcept KeyError:\n    pass\n"
        assert codes(src) == []


class TestDBO109RngConstruction:
    def test_random_random_fires(self):
        src = "import random\nrng = random.Random(7)\n"
        assert "DBO109" in codes(src)

    def test_numpy_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert "DBO109" in codes(src)

    def test_from_import_constructor_fires(self):
        src = "from random import Random\nrng = Random(7)\n"
        assert "DBO109" in codes(src)

    def test_substream_counter_is_clean(self):
        src = (
            "from repro.sim.randomness import SubstreamCounter\n"
            "stream = SubstreamCounter(7, stream_id=3)\n"
        )
        assert codes(src) == []


class TestSelect:
    def test_select_restricts_rules(self):
        src = "import time\nimport random\nt = time.time()\nx = random.random()\n"
        only = lint_source(src, path=SRC, select=["DBO102"])
        assert [f.code for f in only] == ["DBO102"]

    def test_unknown_code_rejected(self):
        from repro.lint import LintUsageError

        with pytest.raises(LintUsageError):
            lint_source("x = 1\n", path=SRC, select=["DBO999"])


class TestFindingShape:
    def test_positions_and_snippets(self):
        findings = lint_source("import time\nstart = time.time()\n", path=SRC)
        (finding,) = findings
        assert finding.code == "DBO101"
        assert finding.line == 2
        assert finding.snippet == "start = time.time()"
        assert finding.path == SRC
        assert SRC in finding.render()

    def test_findings_sorted_canonically(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        findings = lint_source(src, path=SRC)
        assert [f.line for f in findings] == [2, 3]

    def test_rule_summaries_exposed(self):
        assert REGISTRY["DBO104"].summary
