"""Outside-in span tracer: attributes a run's host time to the repo's layers.

Nothing under ``src/`` knows this exists.  :meth:`Tracer.install` patches,
at class / module level and before any deployment is built,

* the public ``Scheduler`` API (``schedule_at`` / ``schedule_periodic``;
  ``schedule_after`` delegates to ``schedule_at``), so every engine
  callback runs inside a span owned by the layer that scheduled it;
* the public wiring calls ``Channel.connect`` / ``Link.connect``, so every
  delivery handler (including the closures ``_build`` creates) runs inside
  a span of its owning layer;
* the public entry methods of each layer class and a few module-level
  functions (:data:`ENTRY_METHODS`, :data:`ENTRY_FUNCTIONS`).

A span is ``(name, start, end, parent)``.  The simulator is
single-threaded, so the open spans form a stack and the parent is the
entry below.  Closing a span folds it into its name's accumulator
``[calls, total_s, self_s]`` (self = duration minus children) — an exact
account of *every* span.  Keeping millions of raw spans would cost more
memory than the workload itself, so only the first :data:`SPAN_HEAD` raw
spans are retained for the written timeline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "SPAN_HEAD", "Tracer", "layer_of_module"]

# The traced layers: this repo's module names.
LAYERS = (
    "sim.engine",
    "net",
    "core.release_buffer",
    "core.ordering_buffer",
    "core.aggregation",
    "core.system",
    "ordering",
    "exchange",
    "participants",
    "baselines",
    "faults",
    "metrics",
    "experiments",
)

SPAN_HEAD = 5_000

_CORE_LAYERS = {
    "release_buffer": "core.release_buffer",
    "ordering_buffer": "core.ordering_buffer",
    "release_engine": "core.ordering_buffer",
    "aggregation": "core.aggregation",
    "sharded_ob": "core.aggregation",
}

# module -> class -> public entry methods.  A class or method that no
# longer exists is skipped (and listed in ``Tracer.missing``), so deleting
# code drops rows instead of breaking the harness.  Subclasses that
# override a listed method are wrapped too, under their own module's layer.
_POLICY = (
    "admit", "pop_due", "pop_all", "on_boundary", "on_watermark",
    "advance_watermark", "watermark_extremes", "rebuild_ext_heap",
    "update_straggler_state", "check_silent_stragglers",
)
ENTRY_METHODS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "repro.net.transport": {"Channel": ("send",)},
    "repro.net.link": {"Link": ("send",)},
    "repro.net.multicast": {"MulticastGroup": ("publish", "broadcast")},
    "repro.core.release_buffer": {
        "ReleaseBuffer": (
            "on_batch", "on_recovered_batch", "on_mp_trade", "on_ack", "resend_unacked",
        ),
    },
    "repro.core.ordering_buffer": {
        "OrderingBuffer": ("on_tagged_trade", "on_heartbeat", "flush"),
    },
    "repro.core.release_engine": {
        "ReleaseEngine": ("on_trade", "on_watermark", "on_boundary", "flush"),
    },
    "repro.core.aggregation": {
        "HeartbeatAggregator": ("on_child_summary", "on_child_fence"),
        "MasterOB": (
            "on_child_trade", "on_shard_trade", "on_shard_summary", "on_child_marker", "flush",
        ),
        "ForwardingAggregator": ("on_child_trade", "on_child_marker", "publish_tick"),
    },
    "repro.core.sharded_ob": {
        "ShardOB": ("on_tagged_trade", "on_heartbeat", "publish_summary"),
    },
    "repro.core.batcher": {"Batcher": ("on_point",)},
    "repro.ordering.dbo": {"DeliveryClockPolicy": _POLICY},
    "repro.ordering.cloudex": {"SyncDeadlinePolicy": _POLICY},
    "repro.ordering.fba": {"BatchAuctionPolicy": _POLICY},
    "repro.ordering.direct": {"PassthroughPolicy": _POLICY},
    "repro.ordering.prob": {"ProbabilisticPolicy": _POLICY},
    "repro.participants.mp": {"MarketParticipant": ("on_data",)},
    "repro.exchange.matching": {"MatchingEngine": ("submit",)},
    "repro.faults.injector": {"FaultInjector": ("arm",)},
    "repro.faults.auditor": {"InvariantAuditor": ("attach", "report")},
    "repro.experiments.registry": {"SchemeBuilder": ("build",)},
}
# The policy protocol lists methods most policies do not all define.
_OPTIONAL_METHODS = frozenset(_POLICY)

ENTRY_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "repro.metrics.fairness": ("evaluate_fairness",),
    "repro.metrics.latency": ("latency_stats",),
    "repro.metrics.serialization": ("trade_ordering_digest",),
    "repro.baselines.base": ("default_network_specs",),
    "repro.experiments.runner": ("summarize",),
    "repro.experiments.scenarios": ("cloud_specs",),
    "repro.experiments.chaos": ("run_chaos", "make_plan"),
    "repro.parallel.matrix": ("run_cell",),
}

# Wiring calls whose handler argument becomes a span of its owning layer.
_CONNECTS = (("repro.net.transport", "Channel"), ("repro.net.link", "Link"))


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The traced layer owning ``module`` (``None`` outside ``repro``)."""
    if not module or not module.startswith("repro."):
        return None
    parts = module.split(".")
    top = parts[1]
    if top == "sim":
        return "sim.engine"
    if top == "core":
        return _CORE_LAYERS.get(parts[2] if len(parts) > 2 else "", "core.system")
    if top in ("net", "ordering", "exchange", "participants", "baselines", "faults", "metrics"):
        return top
    return "experiments"  # experiments, parallel, analysis


class Tracer:
    """Span accounting plus the odometers read at the layer boundaries."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # One child-time accumulator per open span; [0] collects the roots.
        self.stack: List[float] = [0.0]
        # name -> [calls, total_s, self_s, name]; the name rides along so a
        # hot frame holding only the accumulator can still log the span.
        self.spans: Dict[str, list] = {}
        self.layer_of_span: Dict[str, str] = {}
        self.head: List[Tuple[str, float, float, int]] = []  # (name, start, end, depth)
        self.missing: List[str] = []
        # Boundary odometers, appended by the `run` hooks.
        self.engine_runs: List[Dict[str, float]] = []
        self.deployment_runs: List[Dict[str, Any]] = []
        self.fairness_pairs = 0
        self._owner_cache: Dict[Any, Optional[list]] = {}

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------
    def accumulator(self, name: str, layer: str) -> list:
        acc = self.spans.get(name)
        if acc is None:
            acc = self.spans[name] = [0, 0.0, 0.0, name]
            self.layer_of_span[name] = layer
        return acc

    def _close(self, acc: list, t0: float) -> None:
        end = self.clock()
        duration = end - t0
        stack = self.stack
        acc[0] += 1
        acc[1] += duration
        acc[2] += duration - stack.pop()
        stack[-1] += duration
        if len(self.head) < SPAN_HEAD:
            self.head.append((acc[3], t0, end, len(stack)))

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` running inside a span (generators: one span per resume)."""
        acc = self.accumulator(name, layer)
        stack, clock, head = self.stack, self.clock, self.head

        if inspect.isgeneratorfunction(fn):
            close = self._close

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                iterator = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(acc, t0)
                    yield item

        else:

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    # `_close` inlined: the hottest frame of a traced run.
                    end = clock()
                    duration = end - t0
                    acc[0] += 1
                    acc[1] += duration
                    acc[2] += duration - stack.pop()
                    stack[-1] += duration
                    if len(head) < SPAN_HEAD:
                        head.append((name, t0, end, len(stack)))

        traced._obs_span = True  # type: ignore[attr-defined]
        return traced

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span.  The root's own time — the harness's
        glue between layer calls — is booked to ``experiments``, so the
        layers' self times add up to the whole traced wall."""
        return self.wrap(fn, "observatory.cell", "experiments")()

    # ------------------------------------------------------------------
    # Scheduler callbacks and delivery handlers: span of the owning layer
    # ------------------------------------------------------------------
    def _owner(self, callback: Any) -> Optional[list]:
        """The accumulator of the layer owning ``callback``, or ``None``
        (not repo code, or already a span).  Cached by code object — the
        closures ``_build`` creates per instance share one — and, for
        bound methods, the receiver's type."""
        function = getattr(callback, "__func__", callback)
        receiver = getattr(callback, "__self__", None)
        key = (getattr(function, "__code__", function), type(receiver))
        try:
            return self._owner_cache[key]
        except KeyError:
            pass
        acc: Optional[list] = None
        if not getattr(function, "_obs_span", False):
            inner = getattr(function, "func", function)  # functools.partial
            if receiver is None or inspect.ismodule(receiver):
                module = getattr(inner, "__module__", None)
            else:
                module = type(receiver).__module__
            layer = layer_of_module(module)
            if layer is not None:
                label = getattr(inner, "__qualname__", type(inner).__name__)
                acc = self.accumulator(f"{layer}:{label}", layer)
        self._owner_cache[key] = acc
        return acc

    def _owned(self, callback: Any) -> Any:
        """``callback`` wrapped in its owner's span (itself if unowned)."""
        acc = self._owner(callback)
        if acc is None:
            return callback
        return self.wrap(callback, acc[3], self.layer_of_span[acc[3]])

    def _install_scheduler(self) -> None:
        engine_module = importlib.import_module("repro.sim.engine")
        stack, clock, head = self.stack, self.clock, self.head
        owner, owned = self._owner, self._owned

        def fire(acc: list, callback: Callable[..., None], *args: Any) -> None:
            # Scheduled in place of `callback`, which rides in the args:
            # no closure per event.
            stack.append(0.0)
            t0 = clock()
            try:
                callback(*args)
            finally:
                end = clock()
                duration = end - t0
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - stack.pop()
                stack[-1] += duration
                if len(head) < SPAN_HEAD:
                    head.append((acc[3], t0, end, len(stack)))

        def patched_schedule_at(plain: Any) -> Any:
            def schedule_at(
                self: Any, time: float, callback: Any, priority: int = 1, args: tuple = ()
            ) -> Any:
                acc = owner(callback)
                if acc is None:
                    return plain(self, time, callback, priority, args)
                return plain(self, time, fire, priority, (acc, callback, *args))

            return schedule_at

        def patched_schedule_periodic(plain: Any) -> Any:
            def schedule_periodic(
                self: Any, start_time: float, period: float, callback: Any, priority: int = 1
            ) -> Any:
                return plain(self, start_time, period, owned(callback), priority)

            return schedule_periodic

        # Every kind make_engine accepts; a method inherited from an
        # already-patched class is left alone.
        for kind in sorted(engine_module.ENGINE_FACTORIES):
            cls = type(engine_module.make_engine(kind))
            for method, patched in (
                ("schedule_at", patched_schedule_at),
                ("schedule_periodic", patched_schedule_periodic),
            ):
                plain = getattr(cls, method)
                if not getattr(plain, "_obs_span", False):
                    setattr(
                        cls, method,
                        self.wrap(patched(plain), f"{cls.__name__}.{method}", "sim.engine"),
                    )
            if not getattr(cls.run, "_obs_span", False):
                cls.run = self._engine_run_hook(cls)

    def _engine_run_hook(self, cls: type) -> Callable[..., Any]:
        traced = self.wrap(cls.run, f"{cls.__name__}.run", "sim.engine")
        clock, runs = self.clock, self.engine_runs

        def run(self: Any, *args: Any, **kwargs: Any) -> Any:
            started = clock()
            before = self.events_processed
            try:
                return traced(self, *args, **kwargs)
            finally:
                runs.append({
                    "start": started,
                    "events": self.events_processed - before,
                    "peak_pending": self.peak_pending_events,
                })

        run._obs_span = True  # type: ignore[attr-defined]
        return run

    def _install_connects(self) -> None:
        owned = self._owned

        def patched_connect(plain: Any) -> Any:
            def connect(self: Any, handler: Any) -> None:
                plain(self, owned(handler))

            return connect

        for module_name, class_name in _CONNECTS:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            if cls is None:
                self.missing.append(f"{module_name}.{class_name}")
                continue
            cls.connect = patched_connect(cls.connect)

    # ------------------------------------------------------------------
    # Deployment.run: the build/run split and the public odometers
    # ------------------------------------------------------------------
    def _install_deployment_run(self) -> None:
        base = importlib.import_module("repro.baselines.base").BaseDeployment
        plain = base.run
        clock, runs, wrap = self.clock, self.deployment_runs, self.wrap
        traced_by_class: Dict[type, Callable[..., Any]] = {}

        def run(self: Any, *args: Any, **kwargs: Any) -> Any:
            # `run` lives on the base class; its span belongs to the layer
            # of the concrete deployment (core.system for DBO).
            cls = type(self)
            traced = traced_by_class.get(cls)
            if traced is None:
                layer = layer_of_module(cls.__module__) or "baselines"
                traced = traced_by_class[cls] = wrap(plain, f"{cls.__name__}.run", layer)
            started = clock()
            result = traced(self, *args, **kwargs)
            runs.append({
                "start": started,
                "counters": dict(result.counters),
                "channels": result.channels,
                "trades_forwarded": sum(1 for t in result.trades if t.forward_time is not None),
                "trades_released": sum(1 for t in result.trades if t.position is not None),
                "executions": len(self.ces.matching_engine.book.executions),
            })
            return result

        base.run = run

    # ------------------------------------------------------------------
    def _patch_function(self, module_name: str, name: str) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        plain = getattr(importlib.import_module(module_name), name, None)
        if plain is None:
            self.missing.append(f"{module_name}.{name}")
            return
        traced = self.wrap(plain, name, layer_of_module(module_name) or "experiments")
        if name == "evaluate_fairness":
            traced = self._counting_pairs(traced)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is plain:
                    setattr(loaded, attribute, traced)

    def _counting_pairs(self, evaluate: Callable[..., Any]) -> Callable[..., Any]:
        def evaluate_fairness(*args: Any, **kwargs: Any) -> Any:
            report = evaluate(*args, **kwargs)
            self.fairness_pairs += report.total_pairs
            return report

        return evaluate_fairness

    def _patch_methods(self, cls: type, methods: Tuple[str, ...], listed: bool = True) -> None:
        """Wrap ``methods`` where ``cls`` defines them, then every subclass
        override (``listed`` is false there: not overriding is not missing)."""
        layer = layer_of_module(cls.__module__) or "experiments"
        for method in methods:
            plain = cls.__dict__.get(method)
            if plain is None:
                if listed and method not in _OPTIONAL_METHODS:
                    self.missing.append(f"{cls.__module__}.{cls.__name__}.{method}")
            elif inspect.isfunction(plain) and not getattr(plain, "_obs_span", False):
                setattr(cls, method, self.wrap(plain, f"{cls.__name__}.{method}", layer))
        for subclass in cls.__subclasses__():
            self._patch_methods(subclass, methods, listed=False)

    def install(self) -> None:
        """Patch every boundary.  Call once, before building a deployment."""
        importlib.import_module("repro.experiments")  # loads every layer
        for module_name, classes in ENTRY_METHODS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for class_name, methods in classes.items():
                cls = getattr(module, class_name, None)
                if cls is None:
                    self.missing.append(f"{module_name}.{class_name}")
                else:
                    self._patch_methods(cls, methods)
        for module_name, names in ENTRY_FUNCTIONS.items():
            for name in names:
                try:
                    self._patch_function(module_name, name)
                except ImportError:
                    self.missing.append(f"{module_name}.{name}")
        self._install_connects()
        self._install_deployment_run()
        self._install_scheduler()

    # ------------------------------------------------------------------
    # Reading the account
    # ------------------------------------------------------------------
    def account(self) -> Dict[str, Any]:
        """Everything recorded: ``{name: (calls, total_s, self_s)}`` per span
        name and the odometers read at the ``run`` boundaries."""
        return {
            "spans": {name: tuple(acc[:3]) for name, acc in self.spans.items() if acc[0]},
            "engine_runs": self.engine_runs,
            "deployment_runs": self.deployment_runs,
            "fairness_pairs": self.fairness_pairs,
        }

    def layer_table(self, spans: Dict[str, Tuple[int, float, float]]) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s}}`` over a ``{name: (calls, total, self)}`` account."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, (calls, _total, self_s) in spans.items():
            row = table[self.layer_of_span[name]]
            row["calls"] += calls
            row["self_s"] += self_s
        return table

    def timeline(self) -> List[Dict[str, Any]]:
        """The retained raw spans as ``name/start/end/parent`` records.

        Spans are logged as they close — children before parents — with
        their stack depth.  Sorted by start, a span's parent is the last
        span opened one level up, provided it was retained (it encloses
        the child); long-lived ancestors close after the cap and read
        ``None``.
        """
        if not self.head:
            return []
        origin = min(span[1] for span in self.head)
        ordered = sorted(self.head, key=lambda span: (span[1], span[3]))
        last_at_depth: Dict[int, int] = {}
        records: List[Dict[str, Any]] = []
        for index, (name, start, end, depth) in enumerate(ordered):
            parent = last_at_depth.get(depth - 1)
            if parent is not None and ordered[parent][2] < end:
                parent = None
            last_at_depth[depth] = index
            records.append({
                "name": name,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                "parent": parent,
            })
        return records
