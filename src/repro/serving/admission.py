"""Admission control at the serving front door.

Each arrival is judged *synchronously* against the visible depth of the
query queue — the one signal a real front end can read cheaply (the
``ApproximateNumberOfMessages`` attribute).  Three outcomes:

``admit``
    Below every bound: the query takes the primary index path.
``degrade``
    Over the degrade bound: admitted, but flagged for the coarser
    access path (the crash-consistency 2LUPI → LU → scan ladder) so it
    costs the overloaded fleet less index work.
``shed``
    Over the hard bound: rejected outright.  The arrival never reaches
    a queue; an open workload keeps offering regardless.

Multi-tenant deployments add *per-tenant* bounds on top: a token
bucket enforces each tenant's qps quota and a spend probe (wired by
the serving runtime to the incremental bill) enforces its dollar
budget; an over-quota tenant's arrivals are shed while in-quota
tenants are untouched.  Queue-depth outcomes still apply to everyone —
a full queue sheds every tenant.

Decisions are counted on the metrics registry
(``serving_admission_total{decision,strategy}``, and
``tenant_admission_total{decision,tenant}`` when tenancy is on) so
per-tenant downgrades are attributable to the strategy that served
them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.serving.policy import AdmissionPolicy
from repro.warehouse.messages import QUERY_QUEUE

__all__ = ["AdmissionController", "ADMIT", "DEGRADE", "SHED"]

ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"

#: The single-owner tenant name (kept local: admission must not import
#: repro.tenancy — the tenancy config it receives is duck-typed).
_DEFAULT_TENANT = "default"


class _TokenBucket:
    """Per-tenant qps quota: ``rate`` tokens/s, one second of burst."""

    def __init__(self, rate: float, now: float) -> None:
        self.rate = rate
        self.capacity = max(1.0, rate)
        self.tokens = self.capacity
        self.last = now

    def take(self, now: float) -> bool:
        self.tokens = min(self.capacity,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` to arrivals; counts outcomes.

    ``tenancy`` is an optional :class:`~repro.tenancy.tenant.
    TenancyConfig` (duck-typed: ``spec(name)`` returning objects with
    ``qps_quota``/``dollar_budget``).  ``strategy``
    labels the decision counters with the serving strategy.
    ``spend_lookup`` — set by the runtime — maps a tenant to its
    request dollars so far, for budget enforcement mid-run.
    """

    def __init__(self, cloud: Any, policy: Optional[AdmissionPolicy],
                 tenancy: Optional[Any] = None,
                 strategy: str = "") -> None:
        self._cloud = cloud
        self.policy = policy
        self._tenancy = tenancy
        self._strategy = strategy
        self.spend_lookup: Optional[Callable[[str], float]] = None
        self.offered = 0
        self.admitted = 0
        self.degraded = 0
        self.shed = 0
        self.offered_by: Dict[str, int] = {}
        self.admitted_by: Dict[str, int] = {}
        self.degraded_by: Dict[str, int] = {}
        self.shed_by: Dict[str, int] = {}
        self.over_quota_by: Dict[str, int] = {}
        self._buckets: Dict[str, _TokenBucket] = {}

    def _over_quota(self, tenant: str) -> bool:
        """Whether this arrival exceeds its tenant's qps or dollar quota."""
        if self._tenancy is None:
            return False
        spec = self._tenancy.spec(tenant)
        if spec is None:
            return False
        if spec.qps_quota is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _TokenBucket(
                    spec.qps_quota, self._cloud.env.now)
            if not bucket.take(self._cloud.env.now):
                return True
        return (spec.dollar_budget is not None
                and self.spend_lookup is not None
                and self.spend_lookup(tenant) >= spec.dollar_budget)

    def decide(self, tenant: str = _DEFAULT_TENANT) -> str:
        """Judge one arrival now; returns ``admit``/``degrade``/``shed``."""
        self.offered += 1
        self.offered_by[tenant] = self.offered_by.get(tenant, 0) + 1
        decision = ADMIT
        if self.policy is not None:
            depth = self._cloud.sqs.approximate_depth(QUERY_QUEUE)
            if depth >= self.policy.max_queue_depth:
                decision = SHED
            elif (self.policy.degradation_enabled
                  and depth >= self.policy.degrade_queue_depth):
                decision = DEGRADE
        if decision != SHED and self._over_quota(tenant):
            self.over_quota_by[tenant] = \
                self.over_quota_by.get(tenant, 0) + 1
            decision = SHED
        if decision == SHED:
            self.shed += 1
            self.shed_by[tenant] = self.shed_by.get(tenant, 0) + 1
        else:
            if decision == DEGRADE:
                self.degraded += 1
                self.degraded_by[tenant] = \
                    self.degraded_by.get(tenant, 0) + 1
            self.admitted += 1
            self.admitted_by[tenant] = \
                self.admitted_by.get(tenant, 0) + 1
        hub = self._cloud.telemetry
        hub.counter("serving_admission_total",
                    "Admission decisions at the serving front door.",
                    ("decision", "strategy")).inc(
            decision=decision, strategy=self._strategy)
        if self._tenancy is not None:
            hub.counter(
                "tenant_admission_total",
                "Per-tenant admission decisions.",
                ("decision", "tenant")).inc(
                decision=decision, tenant=tenant)
        return decision
