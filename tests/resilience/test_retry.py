"""RetryPolicy: classification, jitter bounds, determinism."""

from repro.errors import (NoSuchKey, ReceiptHandleInvalid,
                          ThroughputExceeded, TransientServiceError,
                          ValidationError)
from repro.resilience import RetryPolicy, is_retryable
from repro.resilience.retry import BASE_DELAY_S, MAX_ATTEMPTS, MAX_DELAY_S


def test_classification_follows_the_aws_sdk():
    assert is_retryable(TransientServiceError("s3", "get"))
    assert is_retryable(ThroughputExceeded("burst"))
    assert not is_retryable(ValidationError("bad item"))
    assert not is_retryable(NoSuchKey("bucket", "key"))
    assert not is_retryable(ReceiptHandleInvalid("stale"))
    assert not is_retryable(RuntimeError("unrelated"))


def test_policy_validation():
    # The schedule is fixed: the constants are checked here once, where
    # each construction used to check its own copy.
    assert MAX_ATTEMPTS >= 1
    assert 0 < BASE_DELAY_S <= MAX_DELAY_S


def test_decorrelated_jitter_stays_within_bounds():
    policy = RetryPolicy(seed=3)
    rng = policy.make_rng("test")
    previous = 0.0
    for _ in range(200):
        delay = policy.next_delay(rng, previous)
        assert BASE_DELAY_S <= delay <= MAX_DELAY_S
        previous = delay


def test_delays_are_deterministic_per_stream():
    policy = RetryPolicy(seed=11)

    def sequence(stream):
        rng = policy.make_rng(stream)
        delays, previous = [], 0.0
        for _ in range(10):
            previous = policy.next_delay(rng, previous)
            delays.append(previous)
        return delays

    assert sequence("s3") == sequence("s3")
    assert sequence("s3") != sequence("sqs")


def test_delays_grow_from_the_base():
    """Decorrelated jitter can triple the previous delay, so repeated
    failures drift toward the cap rather than hammering the service."""
    policy = RetryPolicy(seed=5)
    rng = policy.make_rng("growth")
    previous = 0.0
    seen_max = 0.0
    for _ in range(100):
        previous = policy.next_delay(rng, previous)
        seen_max = max(seen_max, previous)
    assert seen_max > BASE_DELAY_S * 4
