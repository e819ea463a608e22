"""Named network scenarios matching the paper's three evaluation setups.

§6.2  — DPU-enabled bare-metal testbed: 2 MPs, quiet network, small but
        real latency asymmetry (Table 2).
§6.3  — Azure cloud testbed: 10 MPs, heterogeneous paths, temporally
        correlated latency with rare large spikes (Tables 3-4, Fig. 10).
§6.4  — trace-driven simulation: one-way latencies are random slices of
        the Figure 11 RTT trace, halved (Figs. 12-13).

Each builder returns ``List[NetworkSpec]`` so any scheme can run on it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.baselines.base import NetworkSpec
from repro.net.latency import (
    CloudLatencyModel,
    CompositeLatency,
    NormalJitterLatency,
    SpikeSchedule,
    StepLatency,
    UniformJitterLatency,
)
from repro.net.trace import NetworkTrace, generate_figure11_trace, one_way_models_from_trace
from repro.sim.randomness import stable_u64, stable_uniform

__all__ = [
    "SCENARIOS",
    "baremetal_specs",
    "cloud_specs",
    "congested_specs",
    "multizone_specs",
    "trace_specs",
    "figure11_trace",
    "sim_trace",
]


class _SpikyLatency(CloudLatencyModel):
    """CloudLatencyModel with an explicit base for per-MP asymmetry."""


def baremetal_specs(n_participants: int = 2, seed: int = 11) -> List[NetworkSpec]:
    """The §6.2 testbed: sub-5 µs one-way latency, µs-scale asymmetry.

    One-way base latencies differ by a few µs across participants (cable
    and switch-port differences), with small half-normal jitter — enough
    to misorder roughly a quarter of races under Direct delivery (the
    paper measured 74.62 % fairness).
    """
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        fwd_base = stable_uniform(3.0, 6.5, seed, index, 0)
        rev_base = stable_uniform(3.0, 6.5, seed, index, 1)
        specs.append(
            NetworkSpec(
                forward=NormalJitterLatency(
                    fwd_base, 0.9, seed=stable_u64(seed, index, 2)
                ),
                reverse=NormalJitterLatency(
                    rev_base, 0.9, seed=stable_u64(seed, index, 3)
                ),
            )
        )
    return specs


def cloud_specs(
    n_participants: int = 10,
    seed: int = 12,
    spike_rate_per_second: float = 0.8,
    spike_amplitude_mean: float = 90.0,
    spike_decay: float = 3000.0,
) -> List[NetworkSpec]:
    """The §6.3 Azure deployment: ~13-16 µs one-way, spiky, correlated.

    Each participant gets its own static base (non-equidistant paths), a
    small uniform jitter, and an independent spike process — reproducing
    both the static skew that ruins Direct fairness (57.61 % in Table 3)
    and the rare spikes that stress DBO pacing.
    """
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        fwd_base = stable_uniform(12.0, 16.5, seed, index, 0)
        rev_base = stable_uniform(12.0, 16.5, seed, index, 1)
        forward = CloudLatencyModel(
            base=fwd_base,
            jitter=1.2,
            spike_rate_per_second=spike_rate_per_second,
            spike_amplitude_mean=spike_amplitude_mean,
            spike_decay=spike_decay,
            seed=stable_u64(seed, index, 2),
        )
        reverse = CloudLatencyModel(
            base=rev_base,
            jitter=1.2,
            spike_rate_per_second=spike_rate_per_second,
            spike_amplitude_mean=spike_amplitude_mean,
            spike_decay=spike_decay,
            seed=stable_u64(seed, index, 3),
        )
        specs.append(NetworkSpec(forward=forward, reverse=reverse))
    return specs


def figure11_trace(seed: int = 2023) -> NetworkTrace:
    """The synthetic stand-in for the paper's Figure 11 RTT trace."""
    return generate_figure11_trace(seed=seed)


def sim_trace(seed: int = 2023) -> NetworkTrace:
    """A time-compressed Figure 11 trace for affordable simulation windows.

    The paper drives its §6.4 simulations with the full 2-second trace;
    simulating seconds of 125k trades/s in pure Python is wasteful, so
    the trace-driven figures default to this variant: identical base RTT,
    jitter, spike heights and spike decay, but the seven spikes spread
    over 200 ms instead of 2 s.  Random slices of a few tens of
    milliseconds then sample spikes with realistic probability, which is
    what Figures 12-13 need.  Pass an explicit ``trace`` to the figure
    functions to run the full-scale version.
    """
    return generate_figure11_trace(duration=200_000.0, sample_interval=50.0, seed=seed)


def trace_specs(
    n_participants: int,
    trace: Optional[NetworkTrace] = None,
    seed: int = 13,
) -> List[NetworkSpec]:
    """The §6.4 simulation setup: random trace slices, halved RTTs."""
    if trace is None:
        trace = figure11_trace()
    pairs = one_way_models_from_trace(trace, n_participants, seed=seed)
    return [NetworkSpec(forward=fwd, reverse=rev) for fwd, rev in pairs]


def multizone_specs(
    n_participants: int = 8,
    n_zones: int = 2,
    inter_zone_latency: float = 300.0,
    seed: int = 14,
) -> List[NetworkSpec]:
    """A regional-exchange deployment: participants across availability zones.

    The paper's introduction motivates cloud hosting partly by regional
    exchanges: participants need not share a room with the CES.  Here
    participants are spread round-robin across ``n_zones`` zones; the CES
    lives in zone 0, so out-of-zone participants pay an extra
    ``inter_zone_latency`` each way — a *static* skew two orders of
    magnitude above the in-zone one.  Direct delivery is hopeless in this
    setting; DBO's post-hoc correction absorbs the skew entirely.
    """
    if n_zones < 1:
        raise ValueError("need at least one zone")
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        zone = index % n_zones
        extra = inter_zone_latency if zone != 0 else 0.0
        fwd_base = extra + stable_uniform(12.0, 16.0, seed, index, 0)
        rev_base = extra + stable_uniform(12.0, 16.0, seed, index, 1)
        specs.append(
            NetworkSpec(
                forward=UniformJitterLatency(
                    fwd_base, 2.0, seed=stable_u64(seed, index, 2)
                ),
                reverse=UniformJitterLatency(
                    rev_base, 2.0, seed=stable_u64(seed, index, 3)
                ),
            )
        )
    return specs


def congested_specs(
    n_participants: int = 6,
    seed: int = 15,
    burst_height: float = 120.0,
    burst_length: float = 800.0,
    burst_period: float = 6_000.0,
    horizon: float = 60_000.0,
) -> List[NetworkSpec]:
    """Correlated congestion: one shared fabric event hits *everyone*.

    §6.3.2 explains why DBO stays fair even for slow responders in real
    clouds: latency is temporally correlated, so inter-delivery times
    stay (nearly) equal across participants.  The extreme of that story
    is fully *shared* congestion — an oversubscribed spine link whose
    queue delays every participant's data identically.  Here each
    participant has its own base/jitter, but periodic square congestion
    bursts are one shared process: fairness (even far beyond δ) should
    survive; only latency pays.
    """
    bursts = StepLatency(
        [(0.0, 0.0)]
        + [
            point
            for k in range(int(horizon // burst_period) + 1)
            for point in [
                (burst_period * (k + 0.5), burst_height),
                (burst_period * (k + 0.5) + burst_length, 0.0),
            ]
        ]
    )
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        base = stable_uniform(10.0, 15.0, seed, index, 0)
        forward = CompositeLatency(
            [UniformJitterLatency(base, 1.0, seed=stable_u64(seed, index, 2)), bursts]
        )
        reverse = UniformJitterLatency(
            stable_uniform(10.0, 15.0, seed, index, 1),
            1.0,
            seed=stable_u64(seed, index, 3),
        )
        specs.append(NetworkSpec(forward=forward, reverse=reverse))
    return specs


# The one scenario-name map: the CLI's ``--scenario`` choices and the
# matrix runner's ``CellSpec.scenario`` both resolve through it.
SCENARIOS: Dict[str, Callable[..., List[NetworkSpec]]] = {
    "cloud": cloud_specs,
    "baremetal": baremetal_specs,
    "congested": congested_specs,
    "trace": trace_specs,
    "multizone": multizone_specs,
}
