"""Retry policies mirroring the AWS SDK retry behaviour.

The policy is pure data plus pure functions: which errors are worth
retrying, how many attempts to make (:data:`MAX_ATTEMPTS`), and how
long to back off.  Delays use *decorrelated jitter* (the variant AWS
recommends for thundering-herd avoidance): each delay is drawn
uniformly from ``[base, prev * 3]`` and capped, so consecutive retries
spread out without synchronising across clients.  All randomness comes from a caller-supplied seeded RNG,
keeping chaos runs deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ThroughputExceeded, TransientServiceError

#: Error classes the AWS SDKs retry: 500/503-style transient failures
#: and throttling rejections.  Validation errors, missing keys and
#: stale receipt handles are *not* retryable — repeating them cannot
#: succeed.
RETRYABLE_ERRORS = (TransientServiceError, ThroughputExceeded)

#: Total tries including the first (AWS SDK "standard" mode defaults to
#: 3; the simulation's is higher because chaos scenarios push error
#: rates far beyond production).
MAX_ATTEMPTS = 6

#: Floor of every backoff delay (simulated seconds).
BASE_DELAY_S = 0.05

#: Cap on any single backoff delay (simulated seconds).
MAX_DELAY_S = 2.0


def is_retryable(exc: BaseException) -> bool:
    """Whether a failed cloud call is worth retrying."""
    return isinstance(exc, RETRYABLE_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with decorrelated jitter between
    :data:`BASE_DELAY_S` and :data:`MAX_DELAY_S`.

    Attributes
    ----------
    seed:
        Seed for the per-client jitter stream.
    """

    seed: int = 0

    def make_rng(self, stream: str) -> random.Random:
        """A deterministic jitter RNG for one client stream."""
        return random.Random("{}:retry:{}".format(self.seed, stream))

    def next_delay(self, rng: random.Random, previous: float) -> float:
        """The next backoff delay after sleeping ``previous`` seconds.

        Pass ``previous=0.0`` for the first retry.
        """
        anchor = max(previous, BASE_DELAY_S)
        return min(MAX_DELAY_S, rng.uniform(BASE_DELAY_S, anchor * 3.0))
