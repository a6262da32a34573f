"""The unified deployment configuration.

Four PRs of per-feature kwargs (``instances``, ``instance_type``,
``backend``, ``shards``, ``cache_bytes``, fault plans, ...) are folded
into one frozen value object.  A :class:`DeploymentConfig` describes
*how* a warehouse is provisioned — fleet sizes and instance types for
the loader and query modules, the index-store backend, the storage-
access layer, queue leases, and the optional chaos / autoscaling /
admission policies — while the per-call arguments of the ``Warehouse``
methods describe *what* to run (a strategy, a corpus, a workload).

Construction paths:

- ``Warehouse(deployment=cfg)`` — deploy on a caller-supplied cloud;
- ``Warehouse.deploy(cfg)`` — one-call deployment that also builds the
  :class:`~repro.cloud.provider.CloudProvider` (wiring the config's
  fault plan into it);
- every workload-shaped method takes ``config=...`` accepting either a
  full :class:`DeploymentConfig` or a mapping of field overrides
  applied to the warehouse's own deployment
  (``build_index("2LUPI", config={"loaders": 4})``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.config import instance_type
from repro.errors import ConfigError
from repro.serving.policy import (AdmissionPolicy, AutoscalePolicy,
                                  FailoverPolicy, SpotPolicy)
from repro.store import StoreConfig

__all__ = ["DeploymentConfig"]

#: Index-store backends the warehouse can deploy on.
_BACKENDS = ("dynamodb", "simpledb")


@dataclass(frozen=True)
class DeploymentConfig:
    """How a warehouse deployment is provisioned.

    Defaults reproduce the paper's baseline deployment exactly: eight
    large loaders, one extra-large query processor, DynamoDB, a single
    unsharded/uncached store, the standard 120 s queue lease, no chaos,
    no autoscaling, no admission control.

    Attributes
    ----------
    loaders / loader_type:
        Index-build fleet (the paper's loader module).
    workers / worker_type:
        Query-processor fleet for closed workloads, and the *fixed*
        serving fleet when no autoscale policy is set.
    backend:
        Index store: "dynamodb" or "simpledb" (the [8] baseline).
    batch_size:
        Loader write-batch size (documents per index batch).
    shards / cache_bytes:
        Storage-access layer (see :class:`~repro.store.StoreConfig`).
    visibility_timeout:
        SQS lease length for the work queues (seconds).
    faults:
        Optional :class:`~repro.faults.FaultPlan`; consumed by
        :meth:`Warehouse.deploy` when it builds the cloud.
    autoscale:
        Optional :class:`~repro.serving.policy.AutoscalePolicy` for the
        serving runtime; ``None`` serves on a fixed ``workers`` fleet.
    admission:
        Optional :class:`~repro.serving.policy.AdmissionPolicy`;
        ``None`` admits every arrival.
    spot:
        Optional :class:`~repro.serving.policy.SpotPolicy`: serve part
        of the fleet on spot capacity (cheaper, interruptible) with
        price- and interruption-aware scale-out; ``None`` buys
        everything on-demand.
    failover:
        Optional :class:`~repro.serving.policy.FailoverPolicy`: stand
        up a secondary region with an asynchronously replicated
        manifest and flip serving onto it (bounded staleness) when the
        primary region blacks out; ``None`` serves single-region.
    tenancy:
        Optional :class:`~repro.tenancy.TenancyConfig`: serve many
        tenants over the one deployment with weighted fair-share
        admission, per-tenant quotas and per-tenant bills; ``None``
        serves the single default tenant (seed behaviour).
    """

    loaders: int = 8
    loader_type: str = "l"
    workers: int = 1
    worker_type: str = "xl"
    backend: str = "dynamodb"
    batch_size: int = 8
    shards: int = 1
    cache_bytes: int = 0
    visibility_timeout: float = 120.0
    faults: Optional[Any] = None
    autoscale: Optional[AutoscalePolicy] = None
    admission: Optional[AdmissionPolicy] = None
    spot: Optional[SpotPolicy] = None
    failover: Optional[FailoverPolicy] = None
    tenancy: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.loaders < 1:
            raise ConfigError(
                "DeploymentConfig.loaders must be >= 1, got {}".format(
                    self.loaders))
        if self.workers < 1:
            raise ConfigError(
                "DeploymentConfig.workers must be >= 1, got {}".format(
                    self.workers))
        instance_type(self.loader_type)
        instance_type(self.worker_type)
        if self.backend not in _BACKENDS:
            raise ConfigError(
                "DeploymentConfig.backend must be one of {}, got "
                "{!r}".format("/".join(_BACKENDS), self.backend))
        if self.batch_size < 1:
            raise ConfigError(
                "DeploymentConfig.batch_size must be >= 1, got {}".format(
                    self.batch_size))
        if self.visibility_timeout <= 0:
            raise ConfigError(
                "DeploymentConfig.visibility_timeout must be > 0, got "
                "{}".format(self.visibility_timeout))
        # Delegate shard/cache validation to StoreConfig.
        StoreConfig(shards=self.shards, cache_bytes=self.cache_bytes)
        if self.tenancy is not None:
            # Lazy import: repro.tenancy sits above this module in the
            # layering (it imports serving.traffic), so the type check
            # must not create an import cycle at module load.
            from repro.tenancy.tenant import TenancyConfig
            if not isinstance(self.tenancy, TenancyConfig):
                raise ConfigError(
                    "DeploymentConfig.tenancy must be a TenancyConfig, "
                    "got {!r}".format(type(self.tenancy).__name__))

    @property
    def store_config(self) -> StoreConfig:
        """The storage-access layer slice of this deployment."""
        return StoreConfig(shards=self.shards, cache_bytes=self.cache_bytes)

    @property
    def elastic(self) -> bool:
        """Whether serving runs under an autoscaler."""
        return self.autoscale is not None

    def override(self, **changes: Any) -> "DeploymentConfig":
        """A copy with ``changes`` applied; unknown fields are errors."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise ConfigError(
                "unknown DeploymentConfig field(s) {}; known: {}".format(
                    ", ".join(unknown), ", ".join(sorted(known))))
        return dataclasses.replace(self, **changes)

    @classmethod
    def resolve(cls, base: "DeploymentConfig",
                config: Optional[Any]) -> "DeploymentConfig":
        """Normalise a per-call ``config`` argument against ``base``.

        ``None`` keeps the base; a :class:`DeploymentConfig` replaces
        it wholesale; a mapping is applied as overrides.
        """
        if config is None:
            return base
        if isinstance(config, cls):
            return config
        if isinstance(config, Mapping):
            return base.override(**dict(config))
        raise ConfigError(
            "config must be a DeploymentConfig or a mapping of field "
            "overrides, got {!r}".format(type(config).__name__))
