"""ResilientClient retry loop and ServiceProxy transparency."""

import pytest

from repro.errors import TransientServiceError, ValidationError
from repro.resilience import (RESILIENCE_SERVICE, ResilientClient,
                              ResilientServices, RetryPolicy, ServiceProxy)
from repro.resilience.breaker import FAILURE_THRESHOLD, RESET_TIMEOUT_S
from repro.resilience.retry import MAX_ATTEMPTS
from repro.sim import Environment, Meter
from repro.telemetry import TelemetryHub


def make_client(env=None, meter=None):
    if env is None:
        env = Environment()
        TelemetryHub(env)
    meter = meter or Meter()
    client = ResilientClient(env, meter, RetryPolicy())
    return client, env, meter


class FlakyOp:
    """A generator factory failing the first ``failures`` attempts."""

    def __init__(self, failures, exc=None):
        self.failures = failures
        self.exc = exc or TransientServiceError("s3", "get")
        self.attempts = 0

    def __call__(self):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.exc
        return "ok"
        yield  # pragma: no cover - makes this a generator function


def run_call(client, env, service, op, factory):
    def driver():
        result = yield from client.call(service, op, factory)
        return result
    return env.run_process(driver())


def test_succeeds_after_transient_failures():
    client, env, meter = make_client()
    op = FlakyOp(failures=2)
    assert run_call(client, env, "s3", "get", op) == "ok"
    assert op.attempts == 3
    assert client.retries == {"s3": 2}
    # Each retry waits a positive backoff delay on the simulated clock...
    assert env.now > 0.0
    # ...and is metered under the cost-invisible pseudo-service.
    assert meter.request_count(RESILIENCE_SERVICE, "retry:s3") == 2


def test_exhaustion_reraises_the_last_error():
    client, env, _ = make_client()
    op = FlakyOp(failures=99)
    with pytest.raises(TransientServiceError):
        run_call(client, env, "s3", "get", op)
    assert op.attempts == MAX_ATTEMPTS
    assert client.exhausted["s3"] == 1


def test_non_retryable_errors_raise_immediately():
    client, env, meter = make_client()
    op = FlakyOp(failures=99, exc=ValidationError("bad request"))
    with pytest.raises(ValidationError):
        run_call(client, env, "dynamodb", "put", op)
    assert op.attempts == 1
    assert env.now == 0.0
    assert meter.request_count(RESILIENCE_SERVICE) == 0


def test_open_breaker_holds_calls_instead_of_failing_them():
    client, env, _ = make_client()
    breaker = client.breaker("sqs")
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    assert breaker.seconds_until_allowed() > 0.0
    op = FlakyOp(failures=0)
    assert run_call(client, env, "sqs", "receive", op) == "ok"
    # The call waited out the breaker's reset timeout before running.
    assert env.now >= RESET_TIMEOUT_S


class FakeService:
    """Duck-typed stand-in for a cloud service."""

    def get(self, key):
        return "got:{}".format(key)
        yield  # pragma: no cover

    def create_bucket(self, name):
        return "created:{}".format(name)


def test_proxy_wraps_data_ops_and_passes_admin_ops_through():
    client, env, _ = make_client()
    proxy = ServiceProxy(FakeService(), "s3", client)
    # Admin operation: returned unwrapped, runs synchronously.
    assert proxy.create_bucket("b") == "created:b"
    # Data operation: routed through the retry loop.
    def driver():
        result = yield from proxy.get("k")
        return result
    assert env.run_process(driver()) == "got:k"


def test_resilient_services_exposes_raw_services_when_off():
    s3, ddb, sdb, sqs = object(), object(), object(), object()
    services = ResilientServices(s3=s3, dynamodb=ddb, simpledb=sdb, sqs=sqs)
    assert services.client is None
    assert services.s3 is s3
    assert services.sqs is sqs


def test_wrapping_builds_proxies_for_all_four_services():
    client, _, _ = make_client()
    services = ResilientServices.wrapping(
        client, s3=FakeService(), dynamodb=FakeService(),
        simpledb=FakeService(), sqs=FakeService())
    assert services.client is client
    for name in ("s3", "dynamodb", "simpledb", "sqs"):
        assert isinstance(getattr(services, name), ServiceProxy)
