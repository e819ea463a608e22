"""The simulation runtime context.

A :class:`Runtime` bundles everything a component used to receive as
loose constructor arguments — the event engine, the deployment's seed
(from which every deterministic random stream is derived), the active
:class:`~repro.core.params.DBOParams`, and an optional telemetry
recorder — into one object that is threaded through the stack:

    sim (engine/clocks/randomness) → net (links) → core/exchange
    (RB/OB/batcher/CES) → baselines (deployments) → experiments
    (registry/runner/CLI).

Every component accepts either a bare engine (the historical calling
convention, still used by focused unit tests) or a ``Runtime``;
:func:`as_runtime` normalizes the two.  RNG helpers delegate to the
``stable_*`` family with the runtime's seed, so seed derivations are
bit-identical to the historical ``stable_u64(seed, *coords)`` calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.sim.engine import (
    PeriodicTimer,
    ScheduledEvent,
    Scheduler,
    make_engine,
)
from repro.sim.randomness import (
    SubstreamCounter,
    stable_u64,
    stable_uniform,
    stable_unit,
)

__all__ = ["Runtime", "as_runtime"]


class Runtime:
    """Engine + seeded RNG streams + params + telemetry, as one context.

    Parameters
    ----------
    engine:
        Any :class:`~repro.sim.engine.Scheduler`; defaults to a fresh
        :class:`~repro.sim.engine.HeapEventEngine`.
    seed:
        Root seed for every derived random stream.
    params:
        The deployment's :class:`~repro.core.params.DBOParams` (optional;
        baselines run without one).
    telemetry:
        A :class:`~repro.sim.telemetry.TelemetryRecorder` (optional;
        usually attached later via :meth:`attach_telemetry`).
    """

    __slots__ = ("engine", "seed", "params", "telemetry", "_substreams")

    def __init__(
        self,
        engine: Optional[Scheduler] = None,
        seed: int = 0,
        params: Any = None,
        telemetry: Any = None,
    ) -> None:
        self.engine = engine if engine is not None else make_engine("heap")
        self.seed = seed
        self.params = params
        self.telemetry = telemetry
        self._substreams: Dict[int, SubstreamCounter] = {}

    @classmethod
    def create(
        cls,
        seed: int = 0,
        engine: str = "heap",
        start_time: float = 0.0,
        params: Any = None,
    ) -> "Runtime":
        """Build a runtime with a named engine kind (``heap`` or ``reference``)."""
        return cls(
            engine=make_engine(engine, start_time=start_time),
            seed=seed,
            params=params,
        )

    # ------------------------------------------------------------------
    # Scheduling (delegates to the engine)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        return self.engine.schedule_at(time, callback, priority, args)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 1,
        args: Tuple[Any, ...] = (),
    ) -> ScheduledEvent:
        return self.engine.schedule_after(delay, callback, priority, args)

    def schedule_periodic(
        self,
        start_time: float,
        period: float,
        callback: Callable[[], None],
        priority: int = 1,
    ) -> PeriodicTimer:
        return self.engine.schedule_periodic(start_time, period, callback, priority)

    def cancel(self, event: Union[ScheduledEvent, PeriodicTimer]) -> None:
        self.engine.cancel(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.engine.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Deterministic randomness (delegates to stable_* with the root seed)
    # ------------------------------------------------------------------
    def u64(self, *coords: int) -> int:
        """``stable_u64(seed, *coords)`` — a derived 64-bit stream seed."""
        return stable_u64(self.seed, *coords)

    def unit(self, *coords: int) -> float:
        """A deterministic draw in ``[0, 1)`` at coordinates ``coords``."""
        return stable_unit(self.seed, *coords)

    def uniform(self, low: float, high: float, *coords: int) -> float:
        """A deterministic draw in ``[low, high)`` at ``coords``."""
        return stable_uniform(low, high, self.seed, *coords)

    def substream(self, stream_id: int) -> SubstreamCounter:
        """A named sequential stream; one instance per id per runtime."""
        stream = self._substreams.get(stream_id)
        if stream is None:
            stream = SubstreamCounter(self.seed, stream_id=stream_id)
            self._substreams[stream_id] = stream
        return stream

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, interval: float) -> Any:
        """Create (once) and return the runtime's telemetry recorder."""
        if self.telemetry is None:
            from repro.sim.telemetry import TelemetryRecorder

            self.telemetry = TelemetryRecorder(self.engine, interval)
        return self.telemetry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Runtime(engine={type(self.engine).__name__}, seed={self.seed}, "
            f"now={self.engine.now})"
        )


def as_runtime(context: Union[Runtime, Scheduler, None], seed: int = 0) -> Runtime:
    """Normalize an engine-or-runtime argument into a :class:`Runtime`.

    Components accept either calling convention; a bare engine is wrapped
    (with ``seed`` as the root seed) so internal code deals with exactly
    one type.  ``None`` builds a fresh default runtime.
    """
    if isinstance(context, Runtime):
        return context
    if context is None:
        return Runtime(seed=seed)
    return Runtime(engine=context, seed=seed)
