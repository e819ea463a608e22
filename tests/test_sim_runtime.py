"""Runtime context: engine + seeded RNG + telemetry."""

import pytest

from repro.sim.engine import HeapEventEngine, ReferenceHeapEngine
from repro.sim.randomness import stable_u64, stable_uniform, stable_unit
from repro.sim.runtime import Runtime


class TestConstruction:
    def test_default_engine_is_heap(self):
        runtime = Runtime(seed=3)
        assert isinstance(runtime.engine, HeapEventEngine)
        assert runtime.seed == 3

    def test_create_with_named_engine(self):
        runtime = Runtime.create(seed=1, engine="reference", start_time=5.0)
        assert isinstance(runtime.engine, ReferenceHeapEngine)
        assert runtime.engine.now == 5.0

    def test_create_rejects_engine_tuning_kwargs(self):
        with pytest.raises(TypeError):
            Runtime.create(engine="heap", bucket_width=16.0)

    def test_create_unknown_engine(self):
        with pytest.raises(ValueError):
            Runtime.create(engine="quantum")


class TestRandomness:
    def test_matches_stable_family_bit_for_bit(self):
        # The threading refactor must not change any seed derivation.
        runtime = Runtime(seed=42)
        assert runtime.u64(500, 3) == stable_u64(42, 500, 3)
        assert runtime.unit(1, 2) == stable_unit(42, 1, 2)
        assert runtime.uniform(0.0, 20.0, 4, 200) == stable_uniform(0.0, 20.0, 42, 4, 200)

    def test_substream_cached_per_id(self):
        runtime = Runtime(seed=5)
        a = runtime.substream(77)
        assert runtime.substream(77) is a
        assert runtime.substream(78) is not a

    def test_substream_sequence_matches_counter(self):
        from repro.sim.randomness import SubstreamCounter

        runtime = Runtime(seed=5)
        direct = SubstreamCounter(5, stream_id=77)
        stream = runtime.substream(77)
        assert [stream.next_unit() for _ in range(5)] == [
            direct.next_unit() for _ in range(5)
        ]


class TestTelemetry:
    def test_attach_is_idempotent(self):
        runtime = Runtime()
        recorder = runtime.attach_telemetry(100.0)
        assert runtime.attach_telemetry(50.0) is recorder
        assert runtime.telemetry is recorder

    def test_probe_runs_on_runtime_engine(self):
        runtime = Runtime()
        recorder = runtime.attach_telemetry(10.0)
        recorder.add("constant", lambda: 1.0)
        recorder.start_all(start_time=0.0, stop_time=50.0)
        runtime.engine.run(until=100.0)
        assert len(recorder.probes["constant"].samples) == 6
