"""Resilient call wrappers around the simulated cloud services.

:class:`ResilientClient` owns the retry/breaker machinery;
:class:`ServiceProxy` makes it transparent: it exposes the same
generator API as the raw service, but routes every *data-path* call
through the retry loop.  Administrative operations (``create_bucket``,
``create_queue``...) pass through untouched — they run at setup time,
outside the chaos window, and are synchronous.

Warehouse code therefore switches from ``cloud.s3`` to
``cloud.resilient.s3`` and nothing else changes; with no fault plan
configured ``cloud.resilient`` exposes the raw services themselves, so
the fault-free simulation is bit-for-bit identical to the seed.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Generator, Optional

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import MAX_ATTEMPTS, RetryPolicy, is_retryable
from repro.sim import Environment, Meter

#: Per-service data-path operations that go through the retry loop.
#: Everything else on the service object is administration or
#: inspection and passes through unwrapped.
DATA_OPERATIONS: Dict[str, tuple] = {
    "s3": ("put", "get", "head", "delete"),
    "dynamodb": ("put", "batch_put", "get", "batch_get", "scan",
                 "delete_item"),
    "simpledb": ("put", "batch_put", "get", "select_prefix"),
    "sqs": ("send", "receive", "receive_if_available", "delete", "renew"),
}

#: Pseudo-service under which retry waits are metered (cost-invisible:
#: no price book knows it; the retried requests themselves are billed
#: by the services as usual).
RESILIENCE_SERVICE = "resilience"


class ResilientClient:
    """Shared retry loop + per-service circuit breakers."""

    def __init__(self, env: Environment, meter: Meter,
                 policy: RetryPolicy) -> None:
        self._env = env
        self._meter = meter
        self._policy = policy
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._rngs: Dict[str, Any] = {}
        #: Retries performed, keyed by service.
        self.retries: Counter = Counter()
        #: Calls that exhausted every attempt, keyed by service.
        self.exhausted: Counter = Counter()

    @property
    def policy(self) -> RetryPolicy:
        """The retry policy in force."""
        return self._policy

    def breaker(self, service: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for ``service``."""
        if service not in self._breakers:
            self._breakers[service] = CircuitBreaker(
                clock=lambda: self._env.now)
        return self._breakers[service]

    def _rng(self, service: str):
        if service not in self._rngs:
            self._rngs[service] = self._policy.make_rng(service)
        return self._rngs[service]

    def call(self, service: str, operation: str,
             factory: Callable[[], Generator[Any, Any, Any]],
             ) -> Generator[Any, Any, Any]:
        """Run ``factory()`` with retries, backoff and breaker gating.

        ``factory`` must build a *fresh* generator per attempt (service
        generators are single-shot).  Non-retryable errors propagate
        immediately; retryable ones propagate once attempts are
        exhausted.
        """
        breaker = self.breaker(service)
        rng = self._rng(service)
        delay = 0.0
        attempt = 0
        while True:
            wait = breaker.seconds_until_allowed()
            if wait > 0.0:
                # Open breaker: hold the call instead of failing it —
                # simulated workers have nothing better to do than wait
                # for the outage to pass.
                yield self._env.timeout(wait)
            attempt += 1
            try:
                result = yield from factory()
            except Exception as exc:  # noqa: BLE001 - classified below
                if not is_retryable(exc):
                    raise
                breaker.record_failure()
                if attempt >= MAX_ATTEMPTS:
                    self.exhausted[service] += 1
                    raise
                self.retries[service] += 1
                self._env.telemetry.counter(
                    "retries_total",
                    "Data-path calls retried after a transient error.",
                    ("service",)).inc(service=service)
                self._meter.record(self._env.now, RESILIENCE_SERVICE,
                                   "retry:{}".format(service))
                delay = self._policy.next_delay(rng, delay)
                yield self._env.timeout(delay)
                continue
            breaker.record_success()
            return result


class ServiceProxy:
    """Duck-typed stand-in for a cloud service with retries built in."""

    def __init__(self, raw: Any, service: str,
                 client: ResilientClient) -> None:
        self._raw = raw
        self._service = service
        self._client = client

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._raw, name)
        if name not in DATA_OPERATIONS.get(self._service, ()):
            return attr

        def wrapped(*args: Any, **kwargs: Any) -> Generator[Any, Any, Any]:
            return self._client.call(self._service, name,
                                     lambda: attr(*args, **kwargs))

        wrapped.__name__ = name
        return wrapped

    def __repr__(self) -> str:
        return "<ServiceProxy {} of {!r}>".format(self._service, self._raw)


class ResilientServices:
    """Namespace holding the four data services a warehouse talks to.

    When resilience is off the attributes *are* the raw services; when
    on they are :class:`ServiceProxy` wrappers and :attr:`client` is the
    shared :class:`ResilientClient`.
    """

    def __init__(self, s3: Any, dynamodb: Any, simpledb: Any, sqs: Any,
                 client: Optional[ResilientClient] = None) -> None:
        self.s3 = s3
        self.dynamodb = dynamodb
        self.simpledb = simpledb
        self.sqs = sqs
        self.client = client

    @classmethod
    def wrapping(cls, client: ResilientClient, s3: Any, dynamodb: Any,
                 simpledb: Any, sqs: Any) -> "ResilientServices":
        """Build proxies for all four services around one client."""
        return cls(s3=ServiceProxy(s3, "s3", client),
                   dynamodb=ServiceProxy(dynamodb, "dynamodb", client),
                   simpledb=ServiceProxy(simpledb, "simpledb", client),
                   sqs=ServiceProxy(sqs, "sqs", client),
                   client=client)
