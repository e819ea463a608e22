"""Golden trade-ordering digests: the determinism contract of the engine.

Each scheme is run on the canonical seed-5 comparison (4 participants,
5 000 µs) and its matching-engine trade *ordering* is hashed.  The digests
below are pinned: any engine/runtime/scheduling change that reorders even
one trade pair fails here.  The ordering (not raw timestamps) is hashed
on purpose — it is the paper-level invariant, robust to ulp-scale timing
shifts from scheduling arithmetic.

If a change legitimately alters orderings (e.g. a new random stream), the
digests must be re-pinned in the same commit with an explanation.
"""

import pytest

from repro.baselines.base import default_network_specs
from repro.experiments.runner import run_scheme
from repro.metrics.serialization import trade_ordering_digest

GOLDEN_DIGESTS = {
    "direct": "2d72780e0d0bb8775d1ac5ecba15d112d89cf5d95bc9ff430bc85616428ed77d",
    "cloudex": "43f9f0e87720b72189f70f6e39ecb00461c9542300bfabb2b33e082785289c48",
    "fba": "0135015cb517ed869865eeda72a7b17773ec8e58deacb66c8912fd3140b85ca7",
    "libra": "a62dcb8c94e24e0909b8edfa871a23ea9ef844c0f2c3fe8b4c69e234201c86a7",
    # With 4 well-behaved participants and no spikes, CloudEx's hold-until
    # G(x)+C1 and DBO's delivery-clock ordering resolve every race the
    # same way, so their orderings legitimately coincide on this scenario.
    "dbo": "43f9f0e87720b72189f70f6e39ecb00461c9542300bfabb2b33e082785289c48",
}

# FBA's default 100 ms auction never fires inside 5 000 µs; a 1 000 µs
# interval holds five auctions and produces a real ordering.
SCHEME_KWARGS = {"fba": {"batch_interval": 1000.0}}


def _digest(scheme: str, engine: str = "heap") -> str:
    specs = default_network_specs(4, seed=5)
    result = run_scheme(
        scheme,
        specs,
        duration=5000.0,
        seed=5,
        engine=engine,
        **SCHEME_KWARGS.get(scheme, {}),
    )
    assert sum(1 for t in result.trades if t.position is not None) == 500
    return trade_ordering_digest(result)


@pytest.mark.parametrize("scheme", sorted(GOLDEN_DIGESTS))
def test_golden_digest(scheme):
    assert _digest(scheme) == GOLDEN_DIGESTS[scheme]


def test_digest_is_engine_independent_for_dbo():
    # The push-per-tick reference oracle must produce the identical ordering.
    assert _digest("dbo", engine="reference") == GOLDEN_DIGESTS["dbo"]


def test_digest_insensitive_to_trade_list_order():
    specs = default_network_specs(4, seed=5)
    result = run_scheme("direct", specs, duration=5000.0, seed=5)
    shuffled = result.trades[::-1]
    import dataclasses

    clone = dataclasses.replace(result, trades=shuffled)
    assert trade_ordering_digest(clone) == trade_ordering_digest(result)
