"""A circuit breaker for persistent service outages.

Retries handle *transient* blips; when a service fails continuously the
retry storm itself becomes the problem (every failed attempt is billed).
The breaker watches consecutive failures per service and, past a
threshold, *opens*: calls are held back until a reset timeout passes,
then a probe call (half-open state) decides whether to close again.

The breaker is clock-agnostic — it reads time through a callable so it
runs on simulated time inside the kernel and wall-clock time anywhere
else.
"""

from __future__ import annotations

from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that trip a breaker open.
FAILURE_THRESHOLD = 8

#: Simulated seconds an open breaker holds calls before a probe.
RESET_TIMEOUT_S = 2.0


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._consecutive_failures = 0
        self._opened_at: float = 0.0
        self._state = CLOSED
        #: How many times the breaker tripped open (monitoring).
        self.opened_total = 0

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half-open``."""
        if self._state == OPEN and self.seconds_until_allowed() == 0.0:
            return HALF_OPEN
        return self._state

    def seconds_until_allowed(self) -> float:
        """How long a caller must wait before its next attempt."""
        if self._state != OPEN:
            return 0.0
        elapsed = self._clock() - self._opened_at
        return max(0.0, RESET_TIMEOUT_S - elapsed)

    def record_success(self) -> None:
        """Note a successful call; closes the breaker."""
        self._consecutive_failures = 0
        self._state = CLOSED

    def record_failure(self) -> None:
        """Note a failed call; may trip the breaker open."""
        self._consecutive_failures += 1
        if self._consecutive_failures >= FAILURE_THRESHOLD:
            # A half-open probe failing re-opens immediately; a fresh
            # open restarts the reset clock either way.
            self._state = OPEN
            self._opened_at = self._clock()
            self.opened_total += 1
