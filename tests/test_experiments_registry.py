"""The scheme registry: resolution, errors, and Runtime threading."""

import pytest

from repro.baselines.base import BaseDeployment, default_network_specs
from repro.experiments.registry import (
    SchemeBuilder,
    UnknownSchemeError,
    available_schemes,
    get_builder,
    register_scheme,
)
from repro.experiments.runner import build_deployment
from repro.sim.engine import HeapEventEngine, ReferenceHeapEngine
from repro.sim.runtime import Runtime

ALL_SCHEMES = {"dbo", "direct", "cloudex", "fba", "libra", "prob"}


class TestRegistryContents:
    def test_six_builtin_schemes_registered(self):
        assert set(available_schemes()) == ALL_SCHEMES
        for name in ALL_SCHEMES:
            builder = get_builder(name)
            assert isinstance(builder, SchemeBuilder)
            assert builder.name == name
            assert builder.build(default_network_specs(2)).scheme_name == name

    def test_unknown_scheme_raises_typed_error(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            get_builder("quantum")
        assert excinfo.value.name == "quantum"
        assert excinfo.value.known == tuple(sorted(ALL_SCHEMES))
        assert "quantum" in str(excinfo.value)

    def test_unknown_scheme_is_a_value_error(self):
        # Historical except-ValueError call sites must keep working.
        with pytest.raises(ValueError):
            build_deployment("quantum", default_network_specs(2))

    def test_duplicate_registration_rejected(self):
        dbo = get_builder("dbo")
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("dbo", BaseDeployment)
        assert get_builder("dbo") is dbo
        assert available_schemes() == sorted(ALL_SCHEMES)


class TestBuilderConstruction:
    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_every_scheme_constructs_through_builder(self, name):
        specs = default_network_specs(2, seed=3)
        deployment = get_builder(name).build(specs, seed=3)
        assert isinstance(deployment, BaseDeployment)
        assert deployment.scheme_name == name
        assert deployment.seed == 3
        assert isinstance(deployment.runtime, Runtime)
        assert deployment.engine is deployment.runtime.engine

    def test_engine_kind_reaches_the_deployment(self):
        specs = default_network_specs(2, seed=3)
        deployment = get_builder("direct").build(specs, engine="reference")
        assert isinstance(deployment.engine, ReferenceHeapEngine)

    def test_explicit_runtime_wins_over_seed(self):
        specs = default_network_specs(2, seed=3)
        runtime = Runtime(seed=11)
        deployment = get_builder("direct").build(specs, runtime=runtime, seed=99)
        assert deployment.runtime is runtime
        assert deployment.seed == 11

    def test_build_deployment_routes_through_registry(self):
        specs = default_network_specs(2, seed=3)
        deployment = build_deployment("dbo", specs, seed=5)
        assert deployment.scheme_name == "dbo"
        assert isinstance(deployment.engine, HeapEventEngine)

    @pytest.mark.parametrize(
        "scheme, kwargs",
        [
            ("prob", {"horizon": float("nan")}),
            ("prob", {"horizon": float("inf")}),
            ("libra", {"window": float("nan")}),
            ("libra", {"window": float("inf")}),
            ("fba", {"batch_interval": float("nan")}),
            ("fba", {"batch_interval": float("inf")}),
            ("cloudex", {"c1": float("nan")}),
            ("cloudex", {"c2": float("nan")}),
            ("cloudex", {"c2": float("inf")}),
            ("cloudex", {"sync_error": float("nan")}),
        ],
    )
    def test_non_finite_hold_parameter_is_rejected_at_construction(self, scheme, kwargs):
        # These used to die inside the engine mid-run ("cannot schedule
        # event at nan") or run to the end completing zero trades.
        runtime = Runtime(seed=5)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            build_deployment(
                scheme, default_network_specs(4, seed=5), runtime=runtime, **kwargs
            )
        assert runtime.engine.pending_events == 0
        assert runtime.engine.events_processed == 0

    def test_builder_runs_end_to_end(self):
        specs = default_network_specs(2, seed=3)
        result = get_builder("direct").build(specs, seed=3).run(duration=1500.0)
        assert result.scheme == "direct"
        assert result.trades
