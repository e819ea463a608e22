"""Ablation — packet loss (Appendix D).

Losses are recovered out-of-band; the recovered data does not advance the
delivery clock, so only trades tied to the lost packets lose fairness.
This sweep grows the loss rate and checks that (a) unfairness grows
roughly in proportion, and (b) races untouched by losses stay perfectly
ordered (measured by excluding the lossy participant's recovered-trigger
windows).
"""

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.metrics.fairness import evaluate_fairness, pairwise_correct
from repro.metrics.report import render_table
from repro.net.latency import ConstantLatency
from repro.participants.response_time import UniformResponseTime

DURATION_US = 30_000.0
LOSS_RATES = (0.0, 0.01, 0.05, 0.15)


def specs_with(loss, n=3):
    specs = [
        NetworkSpec(
            forward=ConstantLatency(10.0 + i),
            reverse=ConstantLatency(10.0 + i),
        )
        for i in range(n)
    ]
    specs[0] = NetworkSpec(
        forward=specs[0].forward,
        reverse=specs[0].reverse,
        loss_probability=loss,
        reverse_loss_probability=0.0,
        recovery_delay=500.0,
    )
    return specs


def clean_race_fairness(deployment, result):
    """Fairness over races whose trigger was never lost toward mp0."""
    rb0 = deployment.release_buffers[0]
    affected = set(rb0.recovered_point_ids)
    if affected:
        horizon = max(affected) + 25
        affected |= set(range(min(affected), horizon + 1))
    correct = total = 0
    for trigger, trades in result.trades_by_trigger().items():
        if trigger in affected:
            continue
        for i in range(len(trades)):
            for j in range(i + 1, len(trades)):
                verdict = pairwise_correct(trades[i], trades[j])
                if verdict is None:
                    continue
                total += 1
                correct += bool(verdict)
    return correct / total if total else 1.0


def run_sweep():
    rows = []
    outcomes = {}
    for loss in LOSS_RATES:
        deployment = DBODeployment(
            specs_with(loss),
            params=DBOParams(delta=20.0),
            response_time_model=UniformResponseTime(low=5.0, high=19.0, seed=2),
            seed=2,
        )
        result = deployment.run(duration=DURATION_US, drain=40_000.0)
        overall = evaluate_fairness(result).ratio
        clean = clean_race_fairness(deployment, result)
        lost = deployment.transport.channel("fwd-mp0").packets_lost if loss else 0
        outcomes[loss] = (overall, clean)
        rows.append([f"{100 * loss:.0f} %", int(lost), overall, clean])
    text = render_table(
        ["loss rate", "packets lost", "overall fairness", "clean-race fairness"],
        rows,
        title="Ablation — market-data loss toward mp0 (out-of-band recovery)",
        float_format="{:.4f}",
    )
    return outcomes, text


def test_ablation_losses(benchmark, report):
    outcomes, text = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("ablation_losses", text)

    assert outcomes[0.0] == (1.0, 1.0)
    # Overall fairness degrades as losses grow...
    assert outcomes[0.15][0] < outcomes[0.01][0] <= 1.0
    # ...but races untouched by losses stay perfectly ordered (App. D).
    for overall, clean in outcomes.values():
        assert clean == 1.0
