#!/usr/bin/env python
"""External data streams (§4.2.6): racing on news, fairly.

News events (CPI prints, earnings headlines) trigger speed races just
like market data — but they arrive from outside the cloud over
internet-grade paths with millisecond jitter, and existing exchanges give
no simultaneity guarantee for them.  DBO's answer: the CES *serializes*
the external stream into the market-data stream (the "super stream");
once an event carries a data-point id, batching, pacing and delivery
clocks give it the same LRTF guarantee as any native tick.

This example attaches a news source to both a Direct and a DBO
deployment and scores only the news-triggered races.

Run:  python examples/news_super_stream.py
"""

from functools import partial

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.experiments.runner import build_deployment
from repro.metrics.fairness import pairwise_correct
from repro.net.latency import UniformJitterLatency
from repro.participants.response_time import RaceResponseTime

N_PARTICIPANTS = 4
DURATION_US = 30_000.0


def cloud_paths():
    """Participants with unequal, jittery paths inside the cloud."""
    return [
        NetworkSpec(
            forward=UniformJitterLatency(8.0 + 3.0 * i, 4.0, seed=70 + i),
            reverse=UniformJitterLatency(8.0 + 3.0 * i, 4.0, seed=80 + i),
        )
        for i in range(N_PARTICIPANTS)
    ]


def run(deployment_cls, **kwargs):
    deployment = deployment_cls(
        cloud_paths(),
        response_time_model=RaceResponseTime(
            N_PARTICIPANTS, low=5.0, high=18.0, gap=0.2, seed=3
        ),
        seed=5,
        **kwargs,
    )
    # A news wire: ~1 headline per 800 µs, arriving over the internet
    # (2 ms base, 1.5 ms jitter — the paper's "order of milliseconds").
    deployment.add_external_source(
        "news-wire",
        UniformJitterLatency(2000.0, 1500.0, seed=99),
        mean_interval=800.0,
        seed=9,
    )
    result = deployment.run(duration=DURATION_US)
    return deployment, result


def score_news_races(deployment, result):
    news_ids = {p.point_id for p in deployment.stream_merger.merged}
    races = result.trades_by_trigger()
    correct = total = 0
    for point_id in news_ids:
        for trades in [races.get(point_id, [])]:
            for i in range(len(trades)):
                for j in range(i + 1, len(trades)):
                    verdict = pairwise_correct(trades[i], trades[j])
                    if verdict is None:
                        continue
                    total += 1
                    correct += bool(verdict)
    return correct, total, len(news_ids)


def main() -> None:
    for label, cls, kwargs in [
        ("Direct delivery", partial(build_deployment, "direct"), {}),
        ("DBO (super stream)", DBODeployment, {"params": DBOParams(delta=20.0)}),
    ]:
        deployment, result = run(cls, **kwargs)
        correct, total, headlines = score_news_races(deployment, result)
        print(f"=== {label} ===")
        print(f"  headlines merged into the stream: {headlines}")
        print(f"  news-race pairs ordered correctly: {correct}/{total} "
              f"({100.0 * correct / max(total, 1):.1f} %)")
        print()
    print("The internet leg's millisecond jitter delays *when* a headline")
    print("enters the stream — identically for everyone.  Once merged, DBO")
    print("orders the responses by response time, guaranteed; Direct still")
    print("rewards whoever's cloud path was luckier.")


if __name__ == "__main__":
    main()
