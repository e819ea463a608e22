"""The deployment-layer scheme registry.

Every way of launching a scheme — the CLI, :func:`~repro.experiments.runner.run_scheme`,
the sweep harness, the table/figure regenerators, and the benchmarks —
resolves scheme names through this registry.  A registered scheme is a
:class:`SchemeBuilder`: it knows the deployment class and how to thread a
:class:`~repro.sim.runtime.Runtime` (engine + seed + params) into it, so
callers pick *what* to run (name + kwargs) while the builder owns *how*
the simulation context is assembled.

Adding a scheme is one :func:`register_scheme` call; nothing else in the
stack needs to change.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.baselines.base import BaseDeployment, NetworkSpec
from repro.sim.runtime import Runtime

__all__ = [
    "UnknownSchemeError",
    "SchemeBuilder",
    "SchemeRegistry",
    "REGISTRY",
    "register_scheme",
    "get_builder",
    "available_schemes",
]


class UnknownSchemeError(ValueError):
    """Raised when a scheme name is not in the registry.

    Subclasses :class:`ValueError` so historical ``except ValueError``
    call sites keep working.
    """

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(f"unknown scheme {name!r}; choose from {sorted(known)}")
        self.name = name
        self.known = tuple(sorted(known))


class SchemeBuilder:
    """A deployment factory bound to one registered scheme.

    Parameters
    ----------
    name:
        The scheme's registry key (also its ``scheme_name``).
    factory:
        The deployment class (or any callable with the same signature).
    description:
        One line for ``--help`` style listings.
    """

    __slots__ = ("name", "factory", "description")

    def __init__(
        self,
        name: str,
        factory: Callable[..., BaseDeployment],
        description: str = "",
    ) -> None:
        self.name = name
        self.factory = factory
        self.description = description

    def build(
        self,
        specs: Sequence[NetworkSpec],
        *,
        runtime: Optional[Runtime] = None,
        seed: int = 0,
        engine: str = "heap",
        **kwargs,
    ) -> BaseDeployment:
        """Construct (but do not run) the deployment.

        A caller-supplied ``runtime`` wins; otherwise one is created from
        ``seed`` and the named ``engine`` kind (``heap`` or ``reference``).
        Remaining kwargs go to the deployment constructor untouched.
        """
        if runtime is None:
            runtime = Runtime.create(seed=seed, engine=engine)
        return self.factory(specs, runtime=runtime, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SchemeBuilder({self.name!r}, {self.factory!r})"


class SchemeRegistry:
    """Name → :class:`SchemeBuilder` mapping with registration control."""

    def __init__(self) -> None:
        self._builders: Dict[str, SchemeBuilder] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., BaseDeployment],
        description: str = "",
        replace: bool = False,
    ) -> SchemeBuilder:
        """Register a scheme; re-registration requires ``replace=True``."""
        if name in self._builders and not replace:
            raise ValueError(f"scheme {name!r} is already registered")
        builder = SchemeBuilder(name, factory, description)
        self._builders[name] = builder
        return builder

    def get(self, name: str) -> SchemeBuilder:
        try:
            return self._builders[name]
        except KeyError:
            raise UnknownSchemeError(name, self._builders) from None

    def names(self) -> List[str]:
        return sorted(self._builders)

    def factories(self) -> Dict[str, Callable[..., BaseDeployment]]:
        """A plain name → deployment-class view (legacy ``SCHEMES`` shape)."""
        return {name: builder.factory for name, builder in sorted(self._builders.items())}

    def __contains__(self, name: object) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._builders))

    def __len__(self) -> int:
        return len(self._builders)


REGISTRY = SchemeRegistry()


def register_scheme(
    name: str,
    factory: Callable[..., BaseDeployment],
    description: str = "",
    replace: bool = False,
) -> SchemeBuilder:
    """Register a scheme in the global registry."""
    return REGISTRY.register(name, factory, description=description, replace=replace)


def get_builder(name: str) -> SchemeBuilder:
    """Resolve a scheme name to its :class:`SchemeBuilder`."""
    return REGISTRY.get(name)


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme."""
    return REGISTRY.names()


def _register_builtin_schemes() -> None:
    # Imported lazily so the registry module itself stays import-light
    # and the deployment modules may import registry helpers if needed.
    from repro.baselines.cloudex import CloudExDeployment
    from repro.baselines.direct import DirectDeployment
    from repro.baselines.fba import FBADeployment
    from repro.baselines.libra import LibraDeployment
    from repro.core.system import DBODeployment

    register_scheme("dbo", DBODeployment, "DBO: delivery-clock fair ordering (§4)")
    register_scheme("direct", DirectDeployment, "Direct delivery + FCFS (§6.1)")
    register_scheme("cloudex", CloudExDeployment, "CloudEx sync-clock hold (§2.1)")
    register_scheme("fba", FBADeployment, "Frequent batch auctions (§2.1)")
    register_scheme("libra", LibraDeployment, "Libra randomized windows (§2.1)")
    # DBO's topology with the horizon release rule; 6 µs sits below the
    # default τ = 20, so the latency win is real, while covering most of
    # the cloud profile's reverse-lag spread.
    register_scheme(
        "prob",
        partial(DBODeployment, horizon=6.0),
        "Probabilistic ordering: fixed confidence horizon (beyond Lamport)",
    )


_register_builtin_schemes()
