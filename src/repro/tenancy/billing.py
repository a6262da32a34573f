"""Per-tenant dollar attribution over tenant-labelled spans.

PR 3 made the serve span's inclusive trace cost tie exactly to the
estimator's phase fold — same records, same price book, same fold.
This module splits that one number into per-tenant bills without
breaking the tie-out: every meter record is attributed to the nearest
enclosing span carrying a ``tenant`` attribute (the frontend stamps
submission spans, the workers stamp processing spans), records with no
tenant ancestor land in the ``shared`` bucket (queue polling, drains,
fleet bookkeeping), and :func:`reconcile` folds the float-rounding
residue of the partition into the shared bucket so the bills sum
*bit-exactly* to the estimator total the report already publishes.

Imports of :mod:`repro.costs` stay lazy (mirroring
:mod:`repro.telemetry.costing`) so the telemetry/tenancy layers never
drag the cost model in at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Dict, List, Optional, Tuple

from repro.tenancy.tenant import SHARED_TENANT

__all__ = ["TenantBill", "tenant_of_span", "tenant_costs",
           "partition_costs", "reconcile", "SpendTracker"]

#: Iterations of the ulp fix-up loop in :func:`reconcile`.  A handful
#: suffices in practice; the bound only guards against pathological
#: targets (inf/nan) looping forever.
_RECONCILE_ATTEMPTS = 64


@dataclass
class TenantBill:
    """One tenant's line items for a serving run.

    ``request_cost`` is the tenant's share of billed API requests and
    egress; ``ec2_cost`` its share of fleet instance-hours (apportioned
    by worker busy time, residual to ``shared``).  Sums of each column
    across a report's bills equal the report's estimator totals
    exactly (see :func:`reconcile`).
    """

    tenant: str
    queries: int = 0
    shed: int = 0
    degraded: int = 0
    p50_s: float = 0.0
    p95_s: float = 0.0
    request_cost: float = 0.0
    ec2_cost: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        """Request dollars plus the tenant's EC2 share."""
        return self.request_cost + self.ec2_cost

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view of the bill, dollars rounded."""
        return {
            "tenant": self.tenant,
            "queries": self.queries,
            "shed": self.shed,
            "degraded": self.degraded,
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "request_cost": self.request_cost,
            "ec2_cost": self.ec2_cost,
            "total_cost": self.total_cost,
            "breakdown": dict(sorted(self.breakdown.items())),
        }


def tenant_of_span(tracer: Any, span_id: int,
                   cache: Optional[Dict[int, str]] = None) -> str:
    """The owning tenant of a span: nearest ancestor's ``tenant`` attr.

    Records emitted outside any tenant-labelled span (span id 0, or an
    ancestry with no ``tenant`` attribute) belong to ``shared``.  With a
    ``cache``, the walk up stops at the first cached span and caches
    every span it passed.
    """
    if cache is not None and span_id in cache:
        return cache[span_id]
    tenant = SHARED_TENANT
    walked = []
    if span_id:
        for ancestor_id in tracer.ancestor_ids(span_id):
            if cache is not None and ancestor_id in cache:
                tenant = cache[ancestor_id]
                break
            walked.append(ancestor_id)
            span = tracer.get(ancestor_id)
            if span is None:
                break
            owner = span.attributes.get("tenant")
            if owner is not None:
                tenant = str(owner)
                break
    if cache is not None:
        cache.update(dict.fromkeys(walked, tenant))
        cache[span_id] = tenant
    return tenant


def tenant_costs(tracer: Any, meter: Any, book: Any) -> Dict[str, Any]:
    """Partition the meter's priced records by owning tenant.

    Returns tenant name → :class:`~repro.costs.estimator.CostBreakdown`
    over exactly the records the meter holds — the partition refines
    the whole-run fold, it never prices a record that fold would not.
    """
    from repro.costs.estimator import price_records

    return partition_costs(tracer, price_records(meter.records(), book))


def partition_costs(tracer: Any, priced: Any) -> Dict[str, Any]:
    """:func:`tenant_costs` over already priced ``(record, price)`` pairs."""
    from repro.costs.estimator import CostBreakdown

    buckets: Dict[int, Any] = {}  # span id -> its tenant's bucket
    owners: Dict[int, str] = {}
    out: Dict[str, Any] = {}
    for record, price in priced:
        bucket = buckets.get(record.span_id)
        if bucket is None:
            tenant = tenant_of_span(tracer, record.span_id, owners)
            bucket = out.get(tenant)
            if bucket is None:
                bucket = out[tenant] = CostBreakdown()
            buckets[record.span_id] = bucket
        bucket.accumulate(price)
    return out


def reconcile(parts: List[Tuple[str, float]], target: float,
              ) -> Dict[str, float]:
    """Adjust the last part so the ordered left fold equals ``target``.

    Partitioned sums of floats are not associative: folding each
    tenant's records separately and then summing the subtotals can
    differ from the estimator's single sequential fold by a few ulps.
    The bills must still satisfy ``sum(parts) == target`` *exactly* —
    the tie-out invariant the serving report enforces — so the rounding
    residue is folded into the final part (the ``shared`` bucket, which
    absorbs unattributed spend anyway).  Each nudge moves the last part
    by exactly the observed fold error; a nudge landing on a rounding
    tie hops around the answer for ever, so the part is then walked to
    it float by float (one exists when the part is under half the target).
    """
    if not parts:
        return {}
    keys = [key for key, _ in parts]
    values = [value for _, value in parts]
    seen = set()
    for _ in range(_RECONCILE_ATTEMPTS):
        error = target - reduce(add, values, 0.0)
        if error == 0.0:
            break
        if values[-1] in seen:  # oscillating: walk, do not jump
            toward = math.copysign(math.inf, error)
            while error * toward > 0.0:
                values[-1] = math.nextafter(values[-1], toward)
                error = target - reduce(add, values, 0.0)
            break
        seen.add(values[-1])
        values[-1] += error
    # ``+ 0.0`` normalises a nudged ``-0.0`` without changing any sum.
    return {key: value + 0.0 for key, value in zip(keys, values)}


class SpendTracker:
    """Incremental per-tenant request-dollar accounting.

    The admission controller enforces dollar budgets *during* the run,
    so it cannot wait for the end-of-run bill: the tracker prices only
    the meter records appended since its last look, attributing each
    through the span ancestry exactly like :func:`tenant_costs`.  One
    scan per admission decision over a handful of new records keeps the
    cost O(records), not O(records x decisions).
    """

    def __init__(self, tracer: Any, meter: Any, book: Any,
                 tag_prefix: str = "") -> None:
        self._tracer = tracer
        self._meter = meter
        self._book = book
        self._tag_prefix = tag_prefix
        self._cursor = 0
        self._cache: Dict[int, str] = {}
        self._spent: Dict[str, float] = {}

    def refresh(self) -> None:
        """Price records appended since the previous refresh."""
        from repro.costs.estimator import price_record

        records = self._meter.since(self._cursor)
        self._cursor += len(records)
        for record in records:
            if self._tag_prefix and \
                    not record.tag.startswith(self._tag_prefix):
                continue
            tenant = tenant_of_span(self._tracer, record.span_id,
                                    self._cache)
            cost = price_record(record, self._book).total
            if cost:
                self._spent[tenant] = self._spent.get(tenant, 0.0) + cost

    def spent(self, tenant: str) -> float:
        """Dollars attributed to ``tenant`` so far (refreshes first)."""
        self.refresh()
        return self._spent.get(tenant, 0.0)
