"""Baseline schemes: Direct, FBA and Libra (one engine deployment, a row
each), CloudEx — plus the wiring every scheme shares."""

from repro.baselines.base import BaseDeployment, NetworkSpec, default_network_specs
from repro.baselines.cloudex import CloudExDeployment, CloudExReleaseBuffer
from repro.baselines.engine import EngineDeployment, EngineRow, batch_interval_for

__all__ = [
    "BaseDeployment",
    "NetworkSpec",
    "default_network_specs",
    "CloudExDeployment",
    "CloudExReleaseBuffer",
    "EngineDeployment",
    "EngineRow",
    "batch_interval_for",
]
