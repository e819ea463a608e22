"""Host cost of one heartbeat: a drain-only 8-participant cloud DBO run.

The feed stops after 200 µs and the run drains for the full 400 ms, so almost
every engine event is an RB heartbeat tick or its delivery (the batcher's
idle window timer is the rest).  Prints the host microseconds per
heartbeat — ``deployment.run`` wall over ``heartbeats_sent`` — for each
of ``--runs`` fresh deployments, with their median and minimum::

    PYTHONPATH=src python benchmarks/heartbeat_cost.py --runs 5

Uses only the public experiment API, so the same file measures any two
commits; interleave them, the host's noise is larger than a few percent.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Tuple

from repro.experiments.registry import get_builder
from repro.experiments.scenarios import cloud_specs
from repro.sim.runtime import Runtime


def heartbeat_cost(seed: int) -> Tuple[float, int]:
    """``(host µs per heartbeat, heartbeats sent)`` of one drain-only run."""
    deployment = get_builder("dbo").build(cloud_specs(8, seed=seed), runtime=Runtime.create(seed=seed))
    # A no-op event at the cap keeps the run from settling early, so the
    # whole 400 ms drain is simulated (a settled run would stop within
    # one drain checkpoint of the last trade).
    deployment.engine.schedule_at(200.0 + 400_000.0, lambda: None)
    start = time.perf_counter()
    result = deployment.run(duration=200.0, drain=400_000.0)
    wall = time.perf_counter() - start
    heartbeats = int(result.counters["heartbeats_sent"])
    return 1e6 * wall / heartbeats, heartbeats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh deployments to time")
    parser.add_argument("--seed", type=int, default=7, help="scenario and runtime seed")
    args = parser.parse_args()
    costs = []
    for _ in range(args.runs):
        cost, heartbeats = heartbeat_cost(args.seed)
        costs.append(cost)
        print(f"{cost:.3f} us/heartbeat ({heartbeats} heartbeats)")
    print(f"median {statistics.median(costs):.3f}  min {min(costs):.3f} us/heartbeat")


if __name__ == "__main__":
    main()
