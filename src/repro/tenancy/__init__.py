"""Multi-tenant serving: envelope, fair share, bills, facade.

One warehouse, many tenants — the typed request/response envelope
(:mod:`~repro.tenancy.envelope`) is the single public way in; the
weighted deficit-round-robin queue (:mod:`~repro.tenancy.fairshare`)
keeps a noisy neighbour from moving anyone else's p95; the billing
roll-up (:mod:`~repro.tenancy.billing`) splits the run's
estimator-tied dollars into per-tenant bills; and the facade
(:mod:`~repro.tenancy.facade`) gives each tenant a narrow
submit/poll/mutate API with idempotent retries and ETag-checked
mutations.

Layering: the warehouse/serving/store stack only imports this package
lazily (inside functions), and this package imports nothing from the
warehouse at module scope, so ``import repro.tenancy`` stays cheap and
cycle-free.
"""

from repro.tenancy.billing import (SpendTracker, TenantBill, reconcile,
                                   tenant_costs, tenant_of_span)
from repro.tenancy.envelope import (MutationResponse, QueryRequest,
                                    QueryResponse)
from repro.tenancy.facade import MUTATION_KINDS, TenantFacade
from repro.tenancy.fairshare import FairShareQueue
from repro.tenancy.tenant import (DEFAULT_TENANT, SCHEDULER_FAIR,
                                  SCHEDULER_FIFO, SHARED_TENANT,
                                  TenancyConfig, TenantSpec,
                                  parse_tenant_spec)

__all__ = [
    "DEFAULT_TENANT", "SHARED_TENANT", "SCHEDULER_FAIR", "SCHEDULER_FIFO",
    "TenantSpec", "TenancyConfig",
    "parse_tenant_spec", "QueryRequest", "QueryResponse",
    "MutationResponse", "FairShareQueue", "TenantBill", "tenant_costs",
    "tenant_of_span", "reconcile", "SpendTracker", "TenantFacade",
    "MUTATION_KINDS",
]
