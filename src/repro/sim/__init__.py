"""Simulation substrate: event engines, runtime, clocks, randomness."""

from repro.sim.clocks import (
    Clock,
    DriftingClock,
    PerfectClock,
    SynchronizedClock,
    make_clock,
)
from repro.sim.engine import (
    ENGINE_FACTORIES,
    EventEngine,
    HeapEventEngine,
    PeriodicTimer,
    ReferenceHeapEngine,
    ScheduledEvent,
    Scheduler,
    SimClock,
    SimulationError,
    make_engine,
)
from repro.sim.runtime import Runtime
from repro.sim.service import ServiceQueue
from repro.sim.telemetry import Probe, TelemetryRecorder
from repro.sim.randomness import (
    SubstreamCounter,
    splitmix64,
    stable_bool,
    stable_exponential,
    stable_normal,
    stable_token,
    stable_u64,
    stable_uniform,
    stable_unit,
    substream_seed,
)

__all__ = [
    "Clock",
    "DriftingClock",
    "PerfectClock",
    "SynchronizedClock",
    "make_clock",
    "ENGINE_FACTORIES",
    "EventEngine",
    "HeapEventEngine",
    "PeriodicTimer",
    "ReferenceHeapEngine",
    "ScheduledEvent",
    "Scheduler",
    "SimClock",
    "SimulationError",
    "make_engine",
    "Runtime",
    "ServiceQueue",
    "Probe",
    "TelemetryRecorder",
    "SubstreamCounter",
    "splitmix64",
    "stable_bool",
    "stable_exponential",
    "stable_normal",
    "stable_token",
    "stable_u64",
    "stable_uniform",
    "stable_unit",
    "substream_seed",
]
