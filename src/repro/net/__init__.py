"""Network substrate: latency models, FIFO channels, traces, multicast, transport."""

from repro.net.latency import (
    CloudLatencyModel,
    CompositeLatency,
    ConstantLatency,
    LatencyModel,
    NormalJitterLatency,
    SpikeSchedule,
    StepLatency,
    TraceLatency,
    UniformJitterLatency,
)
from repro.net.multicast import MulticastGroup
from repro.net.transport import Channel, Transport
from repro.net.trace import (
    NetworkTrace,
    generate_figure11_trace,
    load_trace_csv,
    one_way_models_from_trace,
    save_trace_csv,
)

__all__ = [
    "CloudLatencyModel",
    "CompositeLatency",
    "ConstantLatency",
    "LatencyModel",
    "NormalJitterLatency",
    "SpikeSchedule",
    "StepLatency",
    "TraceLatency",
    "UniformJitterLatency",
    "Channel",
    "MulticastGroup",
    "Transport",
    "NetworkTrace",
    "generate_figure11_trace",
    "load_trace_csv",
    "one_way_models_from_trace",
    "save_trace_csv",
]
