"""The simulation runtime context.

A :class:`Runtime` is what a deployment owns besides its components: the
event engine, the root seed from which every deterministic random stream
is derived, the named substreams drawn from it, and an optional
telemetry recorder.  Components (links, RBs, OBs, the CES, the batcher)
take the engine they schedule on and nothing else; only the deployment
and the scheme registry hold a ``Runtime``.

RNG helpers delegate to the ``stable_*`` family with the runtime's seed,
so seed derivations are bit-identical to ``stable_u64(seed, *coords)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.engine import Scheduler, make_engine
from repro.sim.randomness import (
    SubstreamCounter,
    stable_u64,
    stable_uniform,
    stable_unit,
)

__all__ = ["Runtime"]


class Runtime:
    """Engine + seeded RNG streams + telemetry, as one context.

    Parameters
    ----------
    engine:
        Any :class:`~repro.sim.engine.Scheduler`; defaults to a fresh
        :class:`~repro.sim.engine.HeapEventEngine`.
    seed:
        Root seed for every derived random stream.
    telemetry:
        A :class:`~repro.sim.telemetry.TelemetryRecorder` (optional;
        usually attached later via :meth:`attach_telemetry`).
    """

    __slots__ = ("engine", "seed", "telemetry", "_substreams")

    def __init__(
        self,
        engine: Optional[Scheduler] = None,
        seed: int = 0,
        telemetry: Any = None,
    ) -> None:
        self.engine = engine if engine is not None else make_engine("heap")
        self.seed = seed
        self.telemetry = telemetry
        self._substreams: Dict[int, SubstreamCounter] = {}

    @classmethod
    def create(cls, seed: int = 0, engine: str = "heap", start_time: float = 0.0) -> "Runtime":
        """Build a runtime with a named engine kind (``heap`` or ``reference``)."""
        return cls(engine=make_engine(engine, start_time=start_time), seed=seed)

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
