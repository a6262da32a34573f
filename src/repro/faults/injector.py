"""Runtime fault injection for the simulated cloud services.

Each service owns at most one :class:`FaultInjector`.  The service calls
``yield from injector.perturb(operation)`` at the *top* of every
data-path method — before any state mutation — so an injected failure
never leaves a half-applied side effect and a client retry is always
safe.  The injector draws from its own seeded RNG stream
(``random.Random("{seed}:{service}")``), so fault decisions are
deterministic per service and independent of how other services are
exercised.

Injected faults are metered twice:

- under the real ``(service, operation)`` pair for *error* faults,
  because AWS bills a request that returns a 500 just like one that
  succeeds — this is how retries show up in the cost model;
- under the pseudo-service ``"faults"`` so chaos activity can be
  inspected without disturbing the priced services (the cost estimator
  ignores services it has no prices for).

Throttled requests are the exception: DynamoDB does not bill a request
rejected with ``ProvisionedThroughputExceeded``, so those record only
the ``"faults"`` entry.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.errors import ThroughputExceeded, TransientServiceError
from repro.faults.plan import (FAULT_SERVICES, KIND_ERROR, KIND_LATENCY,
                               KIND_THROTTLE, FaultPlan, FaultSpec)
from repro.sim import Environment, Meter

#: Pseudo-service name for fault bookkeeping records.  It has no entry
#: in any price book, so these records are cost-invisible by design.
FAULT_SERVICE = "faults"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault occurrence (for post-run inspection)."""

    time: float
    service: str
    operation: str
    kind: str


class FaultInjector:
    """Applies a service's fault rules to individual requests."""

    def __init__(self, service: str, specs: Sequence[FaultSpec],
                 env: Environment, meter: Meter, seed: int) -> None:
        self._service = service
        self._specs = list(specs)
        self._env = env
        self._meter = meter
        # str seeding hashes with SHA-512, which is stable across runs
        # and interpreters — the cornerstone of deterministic chaos.
        self._rng = random.Random("{}:{}".format(seed, service))
        self.events: List[FaultEvent] = []
        self.counts: Counter = Counter()

    @property
    def service(self) -> str:
        """The service this injector is attached to."""
        return self._service

    def _emit(self, operation: str, kind: str) -> None:
        self.events.append(FaultEvent(time=self._env.now,
                                      service=self._service,
                                      operation=operation, kind=kind))
        self.counts[kind] += 1
        self._env.telemetry.counter(
            "faults_injected_total", "Faults injected by chaos plans.",
            ("service", "kind")).inc(service=self._service, kind=kind)
        self._meter.record(self._env.now, FAULT_SERVICE,
                           "{}:{}".format(self._service, kind))

    def perturb(self, operation: str) -> Generator[Any, Any, None]:
        """Maybe fault this request.  Call before any side effect.

        Raises :class:`TransientServiceError` or
        :class:`ThroughputExceeded` for error-class faults; latency
        faults simply consume simulated time and return.
        """
        for spec in self._specs:
            if not spec.active_at(self._env.now):
                continue
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                continue
            if spec.kind == KIND_LATENCY:
                self._emit(operation, KIND_LATENCY)
                yield self._env.timeout(spec.latency_s)
            elif spec.kind == KIND_ERROR:
                self._emit(operation, KIND_ERROR)
                # The failed attempt is still a billable request.
                self._meter.record(self._env.now, self._service, operation)
                raise TransientServiceError(self._service, operation)
            elif spec.kind == KIND_THROTTLE:
                self._emit(operation, KIND_THROTTLE)
                raise ThroughputExceeded(
                    "{}.{} throttled by fault injection".format(
                        self._service, operation))
        return None


class FaultDomain:
    """All injectors for one cloud provider, built from one plan."""

    def __init__(self, plan: FaultPlan, env: Environment,
                 meter: Meter) -> None:
        self.plan = plan
        self._injectors: Dict[str, FaultInjector] = {}
        for service in FAULT_SERVICES:
            specs = plan.specs_for(service)
            if specs:
                self._injectors[service] = FaultInjector(
                    service, specs, env, meter, plan.seed)

    def injector_for(self, service: str) -> Optional[FaultInjector]:
        """The injector for ``service``, or None if it has no rules."""
        return self._injectors.get(service)

    def events(self) -> List[FaultEvent]:
        """All injected fault events across services, in time order."""
        merged: List[FaultEvent] = []
        for injector in self._injectors.values():
            merged.extend(injector.events)
        merged.sort(key=lambda e: (e.time, e.service, e.operation))
        return merged
