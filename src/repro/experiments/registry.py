"""The deployment-layer scheme table.

Every way of launching a scheme — the CLI, :func:`~repro.experiments.runner.run_scheme`,
the chaos matrix, the table/figure regenerators, and the benchmarks —
resolves scheme names through this module.  A registered scheme is a
:class:`SchemeBuilder` row: it knows the deployment class and how to
thread a :class:`~repro.sim.runtime.Runtime` (engine + seed) into it, so
callers pick *what* to run (name + kwargs) while the builder owns *how*
the simulation context is assembled.

The rows live in one module-level dict behind :func:`register_scheme`,
:func:`get_builder` and :func:`available_schemes`; adding a scheme is one
:func:`register_scheme` call.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.base import BaseDeployment, NetworkSpec
from repro.sim.runtime import Runtime

__all__ = [
    "UnknownSchemeError",
    "SchemeBuilder",
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


# Scheme name -> its builder row.
_SCHEMES: Dict[str, SchemeBuilder] = {}


def register_scheme(
    name: str,
    factory: Callable[..., BaseDeployment],
    description: str = "",
) -> SchemeBuilder:
    """Add a scheme row; a name already taken is a ``ValueError``."""
    if name in _SCHEMES:
        raise ValueError(f"scheme {name!r} is already registered")
    builder = _SCHEMES[name] = SchemeBuilder(name, factory, description)
    return builder


def get_builder(name: str) -> SchemeBuilder:
    """Resolve a scheme name to its :class:`SchemeBuilder`."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise UnknownSchemeError(name, _SCHEMES) from None


def available_schemes() -> List[str]:
    """Sorted names of every registered scheme."""
    return sorted(_SCHEMES)


def _register_builtin_schemes() -> None:
    # Imported lazily so the registry module itself stays import-light
    # and the deployment modules may import registry helpers if needed.
    from repro.baselines.cloudex import CloudExDeployment
    from repro.baselines.engine import DIRECT, FBA, LIBRA, EngineDeployment
    from repro.core.system import DBODeployment

    register_scheme("dbo", DBODeployment, "DBO: delivery-clock fair ordering (§4)")
    # One engine deployment; its rows differ only in data.
    register_scheme("direct", partial(EngineDeployment, row=DIRECT), "Direct delivery + FCFS (§6.1)")
    register_scheme("cloudex", CloudExDeployment, "CloudEx sync-clock hold (§2.1)")
    register_scheme("fba", partial(EngineDeployment, row=FBA), "Frequent batch auctions (§2.1)")
    register_scheme("libra", partial(EngineDeployment, row=LIBRA), "Libra randomized windows (§2.1)")
    # DBO's topology with the horizon release rule; 6 µs sits below the
    # default τ = 20, so the latency win is real, while covering most of
    # the cloud profile's reverse-lag spread.
    register_scheme(
        "prob",
        partial(DBODeployment, horizon=6.0),
        "Probabilistic ordering: fixed confidence horizon (beyond Lamport)",
    )


_register_builtin_schemes()
