"""Baseline schemes: Direct, CloudEx, FBA, Libra — plus shared wiring."""

from repro.baselines.base import BaseDeployment, NetworkSpec, default_network_specs
from repro.baselines.cloudex import CloudExDeployment, CloudExReleaseBuffer
from repro.baselines.direct import DirectDeployment
from repro.baselines.fba import FBADeployment
from repro.baselines.libra import LibraDeployment

__all__ = [
    "BaseDeployment",
    "NetworkSpec",
    "default_network_specs",
    "CloudExDeployment",
    "CloudExReleaseBuffer",
    "DirectDeployment",
    "FBADeployment",
    "LibraDeployment",
]
