"""Tenant identity and the multi-tenant serving configuration.

The warehouse of the paper serves one owner; the ROADMAP's north star
is one shard ring shared by many — each tenant wanting isolation (a
noisy neighbour must not move its p95) and an itemised bill.  This
module holds the two frozen value objects that describe that sharing,
in the :class:`~repro.serving.policy.AdmissionPolicy` mould: validated
at construction, hashable, safe to embed in a
:class:`~repro.warehouse.deployment.DeploymentConfig`.

A :class:`TenantSpec` names one tenant with its fair-share weight and
its quotas (queries per second, dollars per run); arrivals over a quota
are shed.  A :class:`TenancyConfig` is the full ring: the tenants and
the scheduler arm (weighted deficit-round-robin or plain FIFO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = ["DEFAULT_TENANT", "SHARED_TENANT", "TenantSpec",
           "TenancyConfig", "parse_tenant_spec", "SCHEDULER_FAIR",
           "SCHEDULER_FIFO"]

#: The tenant every un-labelled request belongs to (single-owner runs).
DEFAULT_TENANT = "default"

#: Bill bucket for work no tenant span claims (queue polling, drains).
SHARED_TENANT = "shared"

#: Scheduler arms: weighted deficit-round-robin vs. arrival order.
SCHEDULER_FAIR = "fair"
SCHEDULER_FIFO = "fifo"
_SCHEDULERS = (SCHEDULER_FAIR, SCHEDULER_FIFO)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the warehouse.

    Attributes
    ----------
    name:
        Tenant identifier; labels spans, meter attribution, metrics and
        the bill.
    weight:
        Fair-share weight: under saturation the tenant's long-run
        service share converges to ``weight / sum(weights)``.
    qps_quota:
        Token-bucket admission quota (queries per simulated second,
        burst of one second's worth); arrivals over it are shed.
        ``None`` means unmetered.
    dollar_budget:
        Request-dollar budget for one serving run; once the tenant's
        attributed spend crosses it, further arrivals are shed.
        ``None`` means unmetered.
    traffic:
        Optional per-tenant :class:`~repro.serving.traffic.
        TrafficProfile`; tenants without one replay the serve call's
        shared profile.
    """

    name: str
    weight: float = 1.0
    qps_quota: Optional[float] = None
    dollar_budget: Optional[float] = None
    traffic: Optional[object] = None

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigError(
                "TenantSpec.name must be a non-empty token, got "
                "{!r}".format(self.name))
        if self.name == SHARED_TENANT:
            raise ConfigError(
                "TenantSpec.name {!r} is reserved for unattributed "
                "spend".format(SHARED_TENANT))
        if self.weight <= 0:
            raise ConfigError(
                "TenantSpec.weight must be > 0, got {}".format(
                    self.weight))
        if self.qps_quota is not None and self.qps_quota <= 0:
            raise ConfigError(
                "TenantSpec.qps_quota must be > 0, got {}".format(
                    self.qps_quota))
        if self.dollar_budget is not None and self.dollar_budget <= 0:
            raise ConfigError(
                "TenantSpec.dollar_budget must be > 0, got {}".format(
                    self.dollar_budget))
        if self.traffic is not None:
            from repro.serving.traffic import TrafficProfile
            if not isinstance(self.traffic, TrafficProfile):
                raise ConfigError(
                    "TenantSpec.traffic must be a TrafficProfile, got "
                    "{!r}".format(type(self.traffic).__name__))


@dataclass(frozen=True)
class TenancyConfig:
    """The multi-tenant shape of one serving deployment.

    Attributes
    ----------
    tenants:
        The tenants sharing the deployment (unique names).
    scheduler:
        ``"fair"`` holds admitted arrivals at the front door and
        releases them in weighted deficit-round-robin order;
        ``"fifo"`` submits them in arrival order (the noisy-neighbour
        baseline).  The fair arm's dispatch window is
        :data:`~repro.serving.runtime.DISPATCH_WINDOW`.
    """

    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)
    scheduler: str = SCHEDULER_FAIR

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ConfigError("TenancyConfig.tenants must not be empty")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(
                "TenancyConfig tenant names must be unique, got "
                "{}".format(names))
        if self.scheduler not in _SCHEDULERS:
            raise ConfigError(
                "TenancyConfig.scheduler must be one of {}, got "
                "{!r}".format("/".join(_SCHEDULERS), self.scheduler))

    def spec(self, name: str) -> Optional[TenantSpec]:
        """The named tenant's spec (None when unknown)."""
        for candidate in self.tenants:
            if candidate.name == name:
                return candidate
        return None

    @property
    def weights(self) -> "dict[str, float]":
        """Tenant name -> fair-share weight."""
        return {spec.name: spec.weight for spec in self.tenants}


def parse_tenant_spec(text: str) -> TenantSpec:
    """Parse one ``name[:weight[:qps[:budget]]]`` CLI segment.

    Empty positions keep the default (``acme:2``, ``acme::5``,
    ``acme:2::0.01``).  Used by ``repro-warehouse serve --tenants``.
    """
    parts = text.split(":")
    if not parts or not parts[0]:
        raise ConfigError(
            "tenant spec needs a name, got {!r}".format(text))
    if len(parts) > 4:
        raise ConfigError(
            "tenant spec {!r} has too many fields "
            "(name[:weight[:qps[:budget]]])".format(text))
    try:
        weight = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        qps = float(parts[2]) if len(parts) > 2 and parts[2] else None
        budget = float(parts[3]) if len(parts) > 3 and parts[3] else None
    except ValueError:
        raise ConfigError(
            "tenant spec {!r} has a non-numeric field".format(text))
    return TenantSpec(name=parts[0], weight=weight, qps_quota=qps,
                      dollar_budget=budget)
