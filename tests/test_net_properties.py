"""Property-based tests for the network substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    CompositeLatency,
    ConstantLatency,
    StepLatency,
    TraceLatency,
    UniformJitterLatency,
)
from repro.net.transport import Channel
from repro.sim.engine import EventEngine


@st.composite
def latency_model(draw):
    kind = draw(st.sampled_from(["constant", "jitter", "step", "trace"]))
    base = draw(st.floats(min_value=0.1, max_value=100.0))
    if kind == "constant":
        return ConstantLatency(base)
    if kind == "jitter":
        jitter = draw(st.floats(min_value=0.0, max_value=50.0))
        return UniformJitterLatency(base, jitter, seed=draw(st.integers(0, 1000)))
    if kind == "step":
        steps = [(0.0, base)]
        t = 0.0
        for _ in range(draw(st.integers(1, 4))):
            t += draw(st.floats(min_value=1.0, max_value=500.0))
            steps.append((t, draw(st.floats(min_value=0.1, max_value=300.0))))
        return StepLatency(steps)
    times = [0.0, 100.0, 250.0, 400.0]
    values = [draw(st.floats(min_value=0.1, max_value=300.0)) for _ in times]
    return TraceLatency(times, values, offset=draw(st.floats(0.0, 400.0)))


send_times = st.lists(
    st.floats(min_value=0.0, max_value=5000.0), min_size=1, max_size=40
).map(sorted)


@given(latency_model(), send_times)
@settings(max_examples=150, deadline=None)
def test_link_arrivals_are_fifo(model, times):
    """In-order delivery: arrivals never decrease, whatever the model."""
    engine = EventEngine()
    arrivals = []
    link = Channel("link", engine, model, handler=lambda m, s, a: arrivals.append(a))
    for index, t in enumerate(times):
        engine.schedule_at(t, lambda t=t, i=index: link.send(i))
    engine.run()
    assert len(arrivals) == len(times)
    assert arrivals == sorted(arrivals)


@given(latency_model(), send_times)
@settings(max_examples=100, deadline=None)
def test_link_arrival_never_before_send(model, times):
    engine = EventEngine()
    records = []
    link = Channel("link", engine, model, handler=lambda m, s, a: records.append((s, a)))
    for index, t in enumerate(times):
        engine.schedule_at(t, lambda t=t, i=index: link.send(i))
    engine.run()
    for send, arrival in records:
        assert arrival >= send


@given(latency_model(), send_times)
@settings(max_examples=100, deadline=None)
def test_latency_models_are_time_deterministic(model, times):
    """latency_at is a pure function: querying twice (and out of order)
    gives identical values — the property the Max-RTT bound relies on."""
    forward = [model.latency_at(t) for t in times]
    backward = [model.latency_at(t) for t in reversed(times)]
    assert forward == list(reversed(backward))
    assert all(v >= 0.0 for v in forward)


@given(
    latency_model(),
    send_times,
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_lossy_link_conserves_messages(model, times, loss, seed):
    """Every sent message arrives exactly once (normal or recovered)."""
    engine = EventEngine()
    normal, recovered = [], []
    link = Channel(
        "link",
        engine,
        model,
        loss_probability=loss,
        recovery_delay=100.0,
        seed=seed,
        handler=lambda m, s, a: normal.append(m),
        loss_handler=lambda m, s, a: recovered.append(m),
    )
    for index, t in enumerate(times):
        engine.schedule_at(t, lambda i=index: link.send(i))
    engine.run()
    assert sorted(normal + recovered) == list(range(len(times)))
    assert link.packets_lost == len(recovered)
