"""FaultInjector behaviour: determinism, metering, event accounting."""

import pytest

from repro.errors import ThroughputExceeded, TransientServiceError
from repro.faults import FaultDomain, FaultInjector, FaultPlan
from repro.sim import Environment, Meter
from repro.telemetry import TelemetryHub, counter_dict


def make_injector(plan, service="s3", env=None, meter=None):
    env = env or Environment()
    meter = meter or Meter()
    return FaultInjector(service, plan.specs_for(service), env, meter,
                         plan.seed), env, meter


def drive(env, gen):
    """Run one perturb() generator to completion inside the sim."""
    def wrapper():
        yield from gen
    return env.run_process(wrapper())


def test_error_fault_raises_and_bills_the_failed_attempt():
    plan = FaultPlan(seed=1).transient_errors("s3", rate=1.0)
    injector, env, meter = make_injector(plan)
    with pytest.raises(TransientServiceError):
        drive(env, injector.perturb("get"))
    # AWS bills failed requests: the service op is metered once...
    assert meter.request_count("s3", "get") == 1
    # ...and the fault event is recorded under the pseudo-service.
    assert meter.request_count("faults", "s3:error") == 1
    assert injector.counts["error"] == 1


def test_throttle_fault_bills_nothing():
    plan = FaultPlan(seed=1).throttle(rate=1.0)
    injector, env, meter = make_injector(plan, service="dynamodb")
    with pytest.raises(ThroughputExceeded):
        drive(env, injector.perturb("put"))
    # Throttled requests are free on AWS; only the fault event appears.
    assert meter.request_count("dynamodb", "put") == 0
    assert meter.request_count("faults", "dynamodb:throttle") == 1


def test_latency_fault_delays_without_error():
    plan = FaultPlan(seed=1).latency_spike("s3", extra_s=0.75, rate=1.0)
    injector, env, _ = make_injector(plan)
    drive(env, injector.perturb("get"))
    assert env.now == pytest.approx(0.75)


def test_zero_rate_never_fires():
    plan = FaultPlan(seed=1).transient_errors("s3", rate=0.0)
    injector, env, _ = make_injector(plan)
    for _ in range(50):
        drive(env, injector.perturb("get"))
    assert injector.events == []


def test_partial_rate_is_deterministic_in_seed():
    def observed(seed):
        plan = FaultPlan(seed=seed).transient_errors("s3", rate=0.3)
        injector, env, _ = make_injector(plan)
        outcomes = []
        for _ in range(40):
            try:
                drive(env, injector.perturb("get"))
                outcomes.append(False)
            except TransientServiceError:
                outcomes.append(True)
        return outcomes

    assert observed(7) == observed(7)
    assert observed(7) != observed(8)
    assert any(observed(7))
    assert not all(observed(7))


def test_injectors_for_different_services_draw_independent_streams():
    plan = (FaultPlan(seed=7)
            .transient_errors("s3", rate=0.5)
            .transient_errors("sqs", rate=0.5))
    env, meter = Environment(), Meter()
    domain = FaultDomain(plan, env, meter)

    def sample(injector, operation):
        outcomes = []
        for _ in range(30):
            try:
                drive(env, injector.perturb(operation))
                outcomes.append(False)
            except TransientServiceError:
                outcomes.append(True)
        return outcomes

    assert sample(domain.injector_for("s3"), "get") \
        != sample(domain.injector_for("sqs"), "send")


def test_domain_only_builds_injectors_for_planned_services():
    plan = FaultPlan(seed=1).transient_errors("s3", rate=0.1)
    domain = FaultDomain(plan, Environment(), Meter())
    assert domain.injector_for("s3") is not None
    assert domain.injector_for("dynamodb") is None


def test_fault_counts_and_events_merge_across_services():
    plan = (FaultPlan(seed=3)
            .transient_errors("s3", rate=1.0)
            .latency_spike("sqs", extra_s=0.1, rate=1.0))
    env, meter = Environment(), Meter()
    hub = TelemetryHub(env, meter=meter)
    domain = FaultDomain(plan, env, meter)
    with pytest.raises(TransientServiceError):
        drive(env, domain.injector_for("s3").perturb("get"))
    drive(env, domain.injector_for("sqs").perturb("send"))
    assert counter_dict(hub.registry, "faults_injected_total") == {
        "s3:error": 1, "sqs:latency": 1}
    events = domain.events()
    assert [e.kind for e in events] == ["error", "latency"]
    assert events[0].time <= events[1].time
