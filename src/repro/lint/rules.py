"""The DBO1xx rule set: determinism & simulation-purity checks.

Every rule protects a runtime invariant the test suite *observes* but
cannot *enforce* — byte-identical trade orderings, ``jobs=N == jobs=1``
digest equality, replayable chaos runs.  The mapping rule → invariant is
documented in ``docs/architecture.md`` ("Static guarantees") and in each
rule's ``invariant`` attribute.

Scoping: a rule only fires where its invariant lives.  Wall clocks are
banned in ``src/repro`` (a benchmark measuring real elapsed time is
fine); unordered-iteration checks apply to the digest-feeding layers
(metrics / analysis / experiments); everything else applies to all
scanned code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.findings import Finding
from repro.lint.visitor import ModuleContext, Rule

__all__ = ["REGISTRY", "all_rules", "rule_codes"]

REGISTRY: Dict[str, Rule] = {}


def _register(cls):
    instance = cls()
    if instance.code in REGISTRY:  # pragma: no cover - registration bug guard
        raise ValueError(f"duplicate rule code {instance.code}")
    REGISTRY[instance.code] = instance
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in code order (stable for reporting)."""
    return [REGISTRY[code] for code in sorted(REGISTRY)]


def rule_codes() -> List[str]:
    return sorted(REGISTRY)


def _in_src(path: str) -> bool:
    return "src/repro/" in path.replace("\\", "/") or path.replace(
        "\\", "/"
    ).startswith("repro/")


def _norm(path: str) -> str:
    return path.replace("\\", "/")


# ---------------------------------------------------------------------------
# DBO101 — wall-clock sources
# ---------------------------------------------------------------------------

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@_register
class WallClockRule(Rule):
    """DBO101: simulation code must read the engine clock, never the host's."""

    code = "DBO101"
    summary = "wall-clock read (time.time / perf_counter / datetime.now) in simulation code"
    invariant = (
        "simulated time advances only through the event engine, so a run's "
        "behaviour is a pure function of (specs, seed) — never of host load"
    )

    def applies_to(self, path: str) -> bool:
        return _in_src(path)

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in _WALL_CLOCKS:
            yield ctx.finding(
                node,
                self.code,
                f"wall-clock read `{resolved}` — use the engine clock "
                "(`engine.now`) instead",
            )


# ---------------------------------------------------------------------------
# DBO102 — ambient random streams
# ---------------------------------------------------------------------------

_AMBIENT_RANDOM_PREFIXES = ("random.", "numpy.random.")


@_register
class AmbientRandomRule(Rule):
    """DBO102: no module-global RNG streams; draw from Runtime substreams."""

    code = "DBO102"
    summary = "ambient `random` / `numpy.random` use instead of Runtime RNG substreams"
    invariant = (
        "all randomness derives from the deployment seed via "
        "repro.sim.randomness, so every draw is replayable and "
        "independent of import order and process count"
    )

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved is None:
            return
        if any(resolved.startswith(prefix) for prefix in _AMBIENT_RANDOM_PREFIXES):
            yield ctx.finding(
                node,
                self.code,
                f"ambient RNG call `{resolved}` — draw from a seeded "
                "Runtime substream (`repro.sim.randomness`) instead",
            )


# ---------------------------------------------------------------------------
# DBO103 — unordered set/dict iteration in digest-sensitive modules
# ---------------------------------------------------------------------------

_DICT_VIEWS = {"keys", "values", "items"}
_DIGEST_SENSITIVE = ("/metrics/", "/analysis/", "/experiments/")
# A comprehension whose *entire* output flows straight into one of these
# is order-insensitive: the consumer imposes (sorted) or erases (min/max,
# set) the ordering again.
_ORDER_INSENSITIVE_CONSUMERS = {"sorted", "min", "max", "set", "frozenset", "len", "any", "all"}


def _iterable_hazard(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    """Classify an iterable expression as an unordered-iteration hazard."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return "set"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEWS
            and not node.args
            and not node.keywords
        ):
            return f"dict .{func.attr}()"
    return None


@_register
class UnorderedIterationRule(Rule):
    """DBO103: iteration feeding digests must have an explicit order."""

    code = "DBO103"
    summary = "unordered set/dict-view iteration in a digest-sensitive module without sorted(...)"
    invariant = (
        "trade-ordering digests and table digests are byte-stable because "
        "every aggregation iterates in an explicit, hash-free order"
    )

    def applies_to(self, path: str) -> bool:
        return any(part in _norm(path) for part in _DIGEST_SENSITIVE)

    def _consumed_order_insensitively(self, iter_node: ast.AST, ctx: ModuleContext) -> bool:
        clause = ctx.parent(iter_node)
        if not isinstance(clause, ast.comprehension):
            return False
        owner = ctx.parent(clause)
        if isinstance(owner, ast.SetComp):
            return True  # builds an unordered container; no order leaks out
        call = ctx.parent(owner) if owner is not None else None
        return (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in _ORDER_INSENSITIVE_CONSUMERS
            and owner in call.args
        )

    def _check_iter(self, iter_node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        hazard = _iterable_hazard(iter_node, ctx)
        if hazard is not None and not self._consumed_order_insensitively(iter_node, ctx):
            yield ctx.finding(
                iter_node,
                self.code,
                f"iteration over {hazard} in a digest-sensitive module — "
                "wrap in sorted(...) to pin the order",
            )

    def check_For(self, node: ast.For, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_iter(node.iter, ctx)

    def check_AsyncFor(self, node: ast.AsyncFor, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_iter(node.iter, ctx)

    def check_comprehension(self, node: ast.comprehension, ctx: ModuleContext):
        yield from self._check_iter(node.iter, ctx)


# ---------------------------------------------------------------------------
# DBO104 — unpicklable values at the process boundary
# ---------------------------------------------------------------------------

_BOUNDARY_FUNCTIONS = {"parallel_map"}
_POOL_METHODS = {"map", "imap", "imap_unordered", "starmap", "map_async", "apply_async"}


@_register
class ProcessBoundaryRule(Rule):
    """DBO104: only module-level callables may cross into worker processes."""

    code = "DBO104"
    summary = "lambda / nested function / bound method passed across the process boundary"
    invariant = (
        "parallel_map and run_cells ship work to spawn-started workers; "
        "everything crossing must survive pickle, or jobs=N diverges from "
        "jobs=1 by crashing"
    )

    def _boundary_callable_arg(self, node: ast.Call) -> Optional[ast.AST]:
        """The function-valued argument of a recognized boundary call."""
        func = node.func
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _BOUNDARY_FUNCTIONS:
            for kw in node.keywords:
                if kw.arg == "fn":
                    return kw.value
            return node.args[0] if node.args else None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_METHODS
            and isinstance(func.value, ast.Name)
            and "pool" in func.value.id.lower()
        ):
            for kw in node.keywords:
                if kw.arg in {"func", "fn"}:
                    return kw.value
            return node.args[0] if node.args else None
        return None

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        target = self._boundary_callable_arg(node)
        if target is None:
            return
        if isinstance(target, ast.Lambda):
            yield ctx.finding(
                target,
                self.code,
                "lambda passed across the process boundary — lambdas do not "
                "pickle; use a module-level function",
            )
        elif isinstance(target, ast.Name) and ctx.is_local_callable(target.id):
            yield ctx.finding(
                target,
                self.code,
                f"nested function `{target.id}` passed across the process "
                "boundary — closures do not pickle; hoist it to module level",
            )
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and ctx.is_imported_module(base.id):
                return  # module-level function referenced as mod.fn — picklable
            yield ctx.finding(
                target,
                self.code,
                "bound method passed across the process boundary — the "
                "instance must pickle too; prefer a module-level function "
                "over picklable data",
            )


# ---------------------------------------------------------------------------
# DBO105 — direct scheduler/heap mutation
# ---------------------------------------------------------------------------

_ENGINE_NAMES = {"engine", "scheduler", "sched", "event_engine"}


@_register
class SchedulerBypassRule(Rule):
    """DBO105: engine internals are private; schedule via the engine API."""

    code = "DBO105"
    summary = "direct access to scheduler/engine internals (`engine._heap` etc.)"
    invariant = (
        "event ordering (time, priority, sequence) is owned by the engine; "
        "out-of-band heap mutation breaks tie-break determinism and "
        "tombstone cancellation accounting"
    )

    def applies_to(self, path: str) -> bool:
        # The engine owns its internals; everywhere else must go through
        # the Scheduler API.
        return not _norm(path).endswith("repro/sim/engine.py")

    def check_Attribute(self, node: ast.Attribute, ctx: ModuleContext) -> Iterator[Finding]:
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            return
        base = node.value
        base_is_engine = (
            isinstance(base, ast.Name) and base.id.lower() in _ENGINE_NAMES
        ) or (isinstance(base, ast.Attribute) and base.attr.lower() in _ENGINE_NAMES)
        if base_is_engine:
            yield ctx.finding(
                node,
                self.code,
                f"direct access to engine internal `{node.attr}` — use the "
                "Scheduler API (schedule_at / schedule_after / cancel)",
            )


# ---------------------------------------------------------------------------
# DBO106 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
_DATACLASS_DECORATORS = {"dataclass", "dataclasses.dataclass"}


def _is_mutable_default(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


@_register
class MutableDefaultRule(Rule):
    """DBO106: mutable defaults leak state between events/instances."""

    code = "DBO106"
    summary = "mutable default argument (or dataclass field) shared across calls"
    invariant = (
        "event handlers and dataclasses must not share hidden state across "
        "invocations — two runs of the same cell must not see each other"
    )

    def _check_args(self, node, ctx: ModuleContext) -> Iterator[Finding]:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if _is_mutable_default(default):
                yield ctx.finding(
                    default,
                    self.code,
                    "mutable default argument — evaluated once at def time "
                    "and shared across every call; default to None (or use "
                    "field(default_factory=...))",
                )

    def check_FunctionDef(self, node: ast.FunctionDef, ctx: ModuleContext):
        yield from self._check_args(node, ctx)

    def check_AsyncFunctionDef(self, node: ast.AsyncFunctionDef, ctx: ModuleContext):
        yield from self._check_args(node, ctx)

    def check_Lambda(self, node: ast.Lambda, ctx: ModuleContext):
        yield from self._check_args(node, ctx)

    def check_ClassDef(self, node: ast.ClassDef, ctx: ModuleContext) -> Iterator[Finding]:
        decorated = False
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            dotted = ctx.resolve(target) or ctx.dotted_name(target) or ""
            if dotted in _DATACLASS_DECORATORS or dotted.endswith(".dataclass"):
                decorated = True
                break
        if not decorated:
            return
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and _is_mutable_default(stmt.value):
                yield ctx.finding(
                    stmt.value,
                    self.code,
                    "mutable dataclass field default — use "
                    "field(default_factory=...)",
                )


# ---------------------------------------------------------------------------
# DBO107 — float equality on simulated-time values
# ---------------------------------------------------------------------------

_TIME_NAMES = {"now", "time", "t", "deadline", "timestamp", "stamp"}
_TIME_SUFFIXES = ("_time", "_at", "_stamp", "_deadline")


def _is_time_like(node: ast.AST) -> bool:
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _TIME_NAMES or lowered.endswith(_TIME_SUFFIXES)


@_register
class FloatTimeEqualityRule(Rule):
    """DBO107: simulated times are floats; exact equality is a latent flake."""

    code = "DBO107"
    summary = "float == / != on simulated-time values"
    invariant = (
        "event times accumulate float error (periodic timers multiply, "
        "not add, to stay drift-free); exact comparison on derived times "
        "silently diverges between equivalent schedules"
    )

    def applies_to(self, path: str) -> bool:
        return _in_src(path)

    def check_Compare(self, node: ast.Compare, ctx: ModuleContext) -> Iterator[Finding]:
        comparands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, comparands, comparands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(
                isinstance(side, ast.Constant)
                and not isinstance(side.value, (int, float))
                for side in (left, right)
            ):
                continue  # comparisons against None / strings are not time math
            if _is_time_like(left) or _is_time_like(right):
                yield ctx.finding(
                    node,
                    self.code,
                    "exact float equality on a simulated-time value — "
                    "compare with a tolerance or restructure around event "
                    "ordering",
                )
                return


# ---------------------------------------------------------------------------
# DBO108 — broad except that swallows without structured capture
# ---------------------------------------------------------------------------

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _body_reraises(body: List[ast.stmt]) -> bool:
    return any(isinstance(stmt, ast.Raise) for stmt in ast.walk(ast.Module(body=body, type_ignores=[])))


def _name_used(body: List[ast.stmt], name: str) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name:
                return True
    return False


@_register
class BroadExceptRule(Rule):
    """DBO108: failures must be captured as data, never silently eaten."""

    code = "DBO108"
    summary = "bare/broad except that swallows the exception without structured capture"
    invariant = (
        "a crashing cell or handler surfaces as a structured TaskOutcome / "
        "audit record — never as a silently-absent result that changes "
        "aggregate digests"
    )

    def check_ExceptHandler(self, node: ast.ExceptHandler, ctx: ModuleContext) -> Iterator[Finding]:
        if node.type is None:
            yield ctx.finding(
                node,
                self.code,
                "bare `except:` — catch a specific exception, or capture "
                "the error as structured data (class name + traceback)",
            )
            return
        resolved = ctx.resolve(node.type) or ""
        if resolved not in _BROAD_EXCEPTIONS:
            return
        if _body_reraises(node.body):
            return
        if node.name and _name_used(node.body, node.name):
            return
        yield ctx.finding(
            node,
            self.code,
            f"`except {resolved}` swallows the exception — bind it "
            "(`as exc`) and record its class name and traceback, or "
            "re-raise",
        )


# ---------------------------------------------------------------------------
# DBO109 — RNG construction outside a seeded Runtime substream
# ---------------------------------------------------------------------------

_RNG_CONSTRUCTORS = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
}


@_register
class RngConstructionRule(Rule):
    """DBO109: RNG instances come from Runtime substreams, nowhere else."""

    code = "DBO109"
    summary = "RNG constructed outside a seeded Runtime substream"
    invariant = (
        "every stream's seed derives from the deployment seed via "
        "substream_seed / SubstreamCounter, so adding a consumer never "
        "perturbs any other stream"
    )

    def check_Call(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        resolved = ctx.resolve(node.func)
        if resolved in _RNG_CONSTRUCTORS:
            yield ctx.finding(
                node,
                self.code,
                f"`{resolved}` constructed directly — derive the stream "
                "from the Runtime (`runtime.substream(...)` or "
                "`substream_seed`)",
            )
