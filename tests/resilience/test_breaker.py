"""CircuitBreaker state machine: closed -> open -> half-open -> closed."""

import pytest

from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.breaker import FAILURE_THRESHOLD, RESET_TIMEOUT_S


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_breaker():
    clock = FakeClock()
    return CircuitBreaker(clock), clock


def _trip(breaker):
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()


def test_validation():
    # One pair of constants tunes every breaker; they are checked here
    # once, where each construction used to check its own arguments.
    assert FAILURE_THRESHOLD >= 2
    assert RESET_TIMEOUT_S > 0


def test_starts_closed_and_allows_calls():
    breaker, _ = make_breaker()
    assert breaker.state == CLOSED
    assert breaker.seconds_until_allowed() == 0.0


def test_opens_after_consecutive_failures():
    breaker, _ = make_breaker()
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.opened_total == 1
    assert breaker.seconds_until_allowed() == pytest.approx(RESET_TIMEOUT_S)


def test_success_resets_the_failure_streak():
    breaker, _ = make_breaker()
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    breaker.record_success()
    for _ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state == CLOSED


def test_half_open_after_reset_timeout():
    breaker, clock = make_breaker()
    _trip(breaker)
    assert breaker.state == OPEN
    clock.now = RESET_TIMEOUT_S / 4
    assert breaker.seconds_until_allowed() == pytest.approx(
        RESET_TIMEOUT_S * 3 / 4)
    clock.now = RESET_TIMEOUT_S
    assert breaker.seconds_until_allowed() == 0.0
    assert breaker.state == HALF_OPEN


def test_half_open_probe_success_closes():
    breaker, clock = make_breaker()
    _trip(breaker)
    clock.now = RESET_TIMEOUT_S * 1.5
    assert breaker.state == HALF_OPEN
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.seconds_until_allowed() == 0.0


def test_half_open_probe_failure_reopens_with_fresh_timer():
    breaker, clock = make_breaker()
    _trip(breaker)
    clock.now = RESET_TIMEOUT_S * 1.5
    assert breaker.state == HALF_OPEN
    breaker.record_failure()              # the probe fails: the streak
    assert breaker.state == OPEN          # is still past the threshold
    assert breaker.opened_total == 2
    assert breaker.seconds_until_allowed() == pytest.approx(RESET_TIMEOUT_S)
