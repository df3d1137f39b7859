"""Unit tests for the crypto instrumentation counters."""

from repro.crypto.keys import KeyRegistry
from repro.crypto.signing import sign
from repro.obs.metrics import collecting

SIGNATURES = "crypto.signatures_created"
VERIFICATIONS = "crypto.verifications_performed"


def test_counters_track_sign_and_verify():
    registry, keys = KeyRegistry.for_processors(2, seed=b"metrics")
    with collecting() as counts:
        msg = sign(keys[1], {"v": 1.0})
        assert counts.counter(SIGNATURES) == 1
        assert counts.counter(VERIFICATIONS) == 0
        msg.verify(registry)
        msg.verify(registry)
    assert counts.counter(VERIFICATIONS) == 2


def test_mechanism_run_counts_scale_with_m():
    from repro.mechanism.properties import run_truthful

    def counts(m):
        with collecting() as registry:
            run_truthful([0.5] * m, 2.0, [2.0] * m)
        return registry.counter(SIGNATURES), registry.counter(VERIFICATIONS)

    small, large = counts(3), counts(9)
    # Roughly linear: tripling m roughly triples both counters.
    assert 2.0 < large[0] / small[0] < 4.0
    assert 2.0 < large[1] / small[1] < 4.0
