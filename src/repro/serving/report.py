"""The serving run's outcome: latency, elasticity and exact dollars.

A :class:`ServingReport` is to :meth:`Warehouse.serve` what
:class:`~repro.warehouse.warehouse.WorkloadReport` is to
``run_workload``, reshaped for an open workload: latency percentiles
instead of a makespan, admission outcomes, the fleet-size timeline, and
a dollar tie-out — the serve span's inclusive request cost must equal
the estimator's phase total to the last float bit (the PR 3 invariant,
now holding across an elastic fleet).

Everything in the report is a plain number, string or list, and
:meth:`ServingReport.to_dict` is deterministic — same seed, same bytes
— which is what the golden-report tests serialise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["ServingReport", "QueryOutcome", "percentile"]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(math.ceil(pct / 100.0 * len(ordered)))
    return ordered[max(rank, 1) - 1]


@dataclass
class QueryOutcome:
    """One served query, as the user experienced it."""

    query_id: int
    name: str
    #: Offset of the arrival from the start of serving (seconds).
    arrived_at: float
    #: Arrival → results fetched (queueing included).
    response_s: float
    #: Admission flagged this query for the degraded access path.
    degraded: bool
    #: How the look-up resolved (strategy name / "s3-scan" / "mixed").
    index_mode: str
    #: Request dollars of this query's span subtree (0.0 untraced).
    cost: float
    #: Owning tenant ("default" in single-owner runs).
    tenant: str = "default"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (nested in the serving report's)."""
        return {
            "query_id": self.query_id,
            "name": self.name,
            "arrived_at": self.arrived_at,
            "response_s": self.response_s,
            "degraded": self.degraded,
            "index_mode": self.index_mode,
            "cost": self.cost,
            "tenant": self.tenant,
        }


@dataclass
class ServingReport:
    """Outcome of one open-workload serving run."""

    strategy_name: str
    tag: str
    arrival: str
    rate_qps: float
    seed: int
    worker_type: str
    elastic: bool

    # -- admission ---------------------------------------------------------
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    degraded: int = 0
    completed: int = 0
    #: Queue-level redeliveries (lease lapses, incl. mid-query retirement).
    redelivered: int = 0

    # -- latency / throughput ---------------------------------------------
    duration_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    p99_s: float = 0.0
    mean_s: float = 0.0
    max_s: float = 0.0

    # -- fleet -------------------------------------------------------------
    initial_workers: int = 0
    peak_workers: int = 0
    mean_workers: float = 0.0
    launched: int = 0
    retired: int = 0
    retired_busy: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    fleet_timeline: List[Tuple[float, int]] = field(default_factory=list)

    # -- spot capacity -----------------------------------------------------
    #: Instances ever bought from the spot market (0 = all on-demand).
    spot_launched: int = 0
    spot_interruptions: int = 0
    #: Interrupted workers that finished their query inside the warning.
    spot_drained: int = 0
    #: Interrupted workers force-reclaimed mid-query (lease lapsed).
    spot_reclaimed: int = 0
    spot_vm_hours: float = 0.0
    ondemand_vm_hours: float = 0.0
    spot_ec2_cost: float = 0.0
    ondemand_ec2_cost: float = 0.0

    # -- multi-region failover ---------------------------------------------
    region_outages: int = 0
    failovers: int = 0
    failbacks: int = 0
    #: Probes that refused to flip (replica outside the staleness bound).
    failover_refusals: int = 0
    #: Index reads served by the replica region while failed over.
    stale_reads: int = 0
    #: Replication cycles completed (heartbeats included).
    replication_ships: int = 0
    #: Queries retried across a region blackout (lease held throughout).
    outage_retries: int = 0
    #: ``(started_at, ended_at)`` per outage, serve-relative seconds.
    outage_windows: List[Tuple[float, float]] = field(default_factory=list)

    # -- dollars -----------------------------------------------------------
    vm_hours: float = 0.0
    ec2_cost: float = 0.0
    #: Request dollars of the serve span's inclusive subtree.
    request_cost: float = 0.0
    #: Request dollars the estimator prices for the serve tag — must
    #: equal :attr:`request_cost` exactly on a traced run.
    estimator_request_cost: float = 0.0
    total_cost: float = 0.0
    cost_per_query: float = 0.0
    #: Per-service split of the request dollars (estimator shape).
    request_breakdown: Dict[str, float] = field(default_factory=dict)

    queries: List[QueryOutcome] = field(default_factory=list)
    #: Per-tenant bills (empty on single-tenant runs); the bills'
    #: request/ec2 columns sum exactly to the run's totals.
    tenant_bills: List[Any] = field(default_factory=list)
    #: The run's tracer (None untraced) — not serialised.
    trace: Optional[Any] = None
    #: Serve-phase span id (0 untraced).
    span_id: int = 0

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second of serving."""
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def cost_tied_out(self) -> bool:
        """Whether span attribution and the estimator agree exactly."""
        return self.request_cost == self.estimator_request_cost

    @property
    def tenants_tied_out(self) -> bool:
        """Whether the per-tenant bills sum exactly to the totals.

        Vacuously true on single-tenant runs (no bills).  On
        multi-tenant runs both billed columns must re-add to the run's
        numbers bit-exactly: request dollars to the estimator total,
        EC2 dollars to the fleet total (ordered left folds, as
        ``reconcile`` guarantees: Python 3.12's ``sum`` compensates).
        """
        if not self.tenant_bills:
            return True
        request_sum = ec2_sum = 0.0
        for bill in self.tenant_bills:
            request_sum += bill.request_cost
            ec2_sum += bill.ec2_cost
        return (request_sum == self.estimator_request_cost
                and ec2_sum == self.ec2_cost)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic, JSON-serialisable view (golden-test shape)."""
        return {
            "strategy": self.strategy_name,
            "tag": self.tag,
            "arrival": self.arrival,
            "rate_qps": self.rate_qps,
            "seed": self.seed,
            "worker_type": self.worker_type,
            "elastic": self.elastic,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "degraded": self.degraded,
            "completed": self.completed,
            "redelivered": self.redelivered,
            "duration_s": self.duration_s,
            "throughput_qps": self.throughput_qps,
            "latency_s": {
                "p50": self.p50_s, "p95": self.p95_s, "p99": self.p99_s,
                "mean": self.mean_s, "max": self.max_s,
            },
            "fleet": {
                "initial": self.initial_workers,
                "peak": self.peak_workers,
                "mean": self.mean_workers,
                "launched": self.launched,
                "retired": self.retired,
                "retired_busy": self.retired_busy,
                "scale_outs": self.scale_outs,
                "scale_ins": self.scale_ins,
                "timeline": [[t, n] for t, n in self.fleet_timeline],
            },
            "spot": {
                "launched": self.spot_launched,
                "interruptions": self.spot_interruptions,
                "drained": self.spot_drained,
                "reclaimed": self.spot_reclaimed,
                "vm_hours": self.spot_vm_hours,
                "ec2": self.spot_ec2_cost,
            },
            "failover": {
                "region_outages": self.region_outages,
                "failovers": self.failovers,
                "failbacks": self.failbacks,
                "refusals": self.failover_refusals,
                "stale_reads": self.stale_reads,
                "replication_ships": self.replication_ships,
                "outage_retries": self.outage_retries,
                "outage_windows": [[a, b]
                                   for a, b in self.outage_windows],
            },
            "dollars": {
                "vm_hours": self.vm_hours,
                "ec2": self.ec2_cost,
                "ec2_spot": self.spot_ec2_cost,
                "ec2_on_demand": self.ondemand_ec2_cost,
                "requests_span": self.request_cost,
                "requests_estimator": self.estimator_request_cost,
                "request_breakdown": dict(self.request_breakdown),
                "total": self.total_cost,
                "per_query": self.cost_per_query,
            },
            "queries": [q.to_dict() for q in self.queries],
            "tenants": [b.to_dict() for b in self.tenant_bills],
        }

    def render(self) -> str:
        """Human-readable summary."""
        lines = [
            "serving run [{}] {} arrivals @ {:g} qps on {} ({})".format(
                self.strategy_name, self.arrival, self.rate_qps,
                self.worker_type,
                "autoscaled" if self.elastic else "fixed fleet"),
            "  offered {}  admitted {}  shed {}  degraded {}  "
            "completed {}  redelivered {}".format(
                self.offered, self.admitted, self.shed, self.degraded,
                self.completed, self.redelivered),
            "  duration {:.1f}s  throughput {:.3f} q/s".format(
                self.duration_s, self.throughput_qps),
            "  latency p50 {:.3f}s  p95 {:.3f}s  p99 {:.3f}s  "
            "mean {:.3f}s  max {:.3f}s".format(
                self.p50_s, self.p95_s, self.p99_s, self.mean_s,
                self.max_s),
            "  fleet initial {}  peak {}  mean {:.2f}  launched {}  "
            "retired {} ({} busy)".format(
                self.initial_workers, self.peak_workers,
                self.mean_workers, self.launched, self.retired,
                self.retired_busy),
            "  dollars: ec2 ${:.6f} ({:.4f} VM-h)  requests ${:.6f}  "
            "total ${:.6f}  (${:.8f}/query)".format(
                self.ec2_cost, self.vm_hours, self.request_cost,
                self.total_cost, self.cost_per_query),
            "  cost tie-out: span ${:.10f} vs estimator ${:.10f} -> "
            "{}".format(self.request_cost, self.estimator_request_cost,
                        "exact" if self.cost_tied_out else "MISMATCH"),
        ]
        if self.spot_launched:
            lines.append(
                "  spot: {} launched  {} interruptions "
                "({} drained / {} reclaimed)  {:.4f} VM-h @ spot "
                "(${:.6f}) vs {:.4f} VM-h on-demand (${:.6f})".format(
                    self.spot_launched, self.spot_interruptions,
                    self.spot_drained, self.spot_reclaimed,
                    self.spot_vm_hours, self.spot_ec2_cost,
                    self.ondemand_vm_hours, self.ondemand_ec2_cost))
        if self.region_outages:
            lines.append(
                "  failover: {} outage(s)  {} failover(s)  "
                "{} failback(s)  {} refusal(s)  {} stale reads  "
                "{} retries  {} ships".format(
                    self.region_outages, self.failovers, self.failbacks,
                    self.failover_refusals, self.stale_reads,
                    self.outage_retries, self.replication_ships))
        if self.tenant_bills:
            lines.append(
                "  tenants ({}):".format(
                    "tied out" if self.tenants_tied_out
                    else "SUM MISMATCH"))
            for bill in self.tenant_bills:
                lines.append(
                    "    {:<12} queries {:>4}  shed {:>4}  "
                    "degraded {:>4}  p50 {:.3f}s  p95 {:.3f}s  "
                    "requests ${:.6f}  ec2 ${:.6f}".format(
                        bill.tenant, bill.queries, bill.shed,
                        bill.degraded, bill.p50_s, bill.p95_s,
                        bill.request_cost, bill.ec2_cost))
        return "\n".join(lines)
