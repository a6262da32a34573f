"""Warehouse observability: resource utilisation and queue health.

The paper explains several results through resource saturation
("DynamoDB was the bottleneck while indexing"; "many strong instances
[...] come close to saturating DynamoDB's capacity") — claims an
operator verifies from service metrics.  This module derives those
metrics from the simulated deployment: key-value store throughput
utilisation and queueing delay, per-instance busy fractions, queue
depths and redelivery counts, and per-service request volumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.telemetry.registry import counter_dict


@dataclass(frozen=True)
class ThroughputUtilization:
    """One fluid server's (DynamoDB/SimpleDB read or write) load."""

    name: str
    requests: int
    total_units: float
    #: Mean queueing delay per request, seconds — the saturation signal.
    mean_queue_delay_s: float
    #: Work currently queued ahead of a new request, seconds.
    backlog_s: float

    @property
    def saturated(self) -> bool:
        """Heuristic: requests waited noticeably on provisioned capacity."""
        return self.mean_queue_delay_s > 0.05


@dataclass(frozen=True)
class InstanceUtilization:
    """One EC2 instance's lifetime utilisation."""

    instance_id: str
    instance_type: str
    uptime_s: float
    busy_ecu_s: float

    @property
    def busy_fraction(self) -> float:
        """Fraction of total compute capacity actually used."""
        from repro.config import instance_type as lookup
        capacity = lookup(self.instance_type).total_ecu * self.uptime_s
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_ecu_s / capacity)


@dataclass(frozen=True)
class QueueHealth:
    """One SQS queue's current state."""

    name: str
    visible: int
    in_flight: int
    redelivered: int
    #: Messages moved to this queue's DLQ (0 without a redrive policy).
    dead_lettered: int = 0

    @property
    def drained(self) -> bool:
        """True when nothing is visible or in flight."""
        return self.visible == 0 and self.in_flight == 0


@dataclass
class ResourceReport:
    """Full deployment snapshot."""

    time_s: float
    stores: List[ThroughputUtilization] = field(default_factory=list)
    instances: List[InstanceUtilization] = field(default_factory=list)
    queues: List[QueueHealth] = field(default_factory=list)
    #: (service, operation) -> billable request count.
    request_counts: Dict[str, int] = field(default_factory=dict)
    #: "service:kind" -> injected fault count (empty without a plan).
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: service -> retried calls (empty without a retry layer engaged).
    retry_counts: Dict[str, int] = field(default_factory=dict)
    #: Manifest records, "name e<epoch> <status>" (empty when the
    #: deployment never ran a checkpointed build).
    index_epochs: List[str] = field(default_factory=list)
    #: physical table -> "suspect"/"missing" (healthy tables omitted).
    table_health: Dict[str, str] = field(default_factory=dict)
    #: Degraded-resolution use counts (strategy name or "s3-scan").
    downgrades: Dict[str, int] = field(default_factory=dict)
    #: Shared store-cache snapshot (empty when no cache is configured).
    store_cache: Dict[str, float] = field(default_factory=dict)
    #: Per-shard stored item balance: shard suffix (".s0", ... or
    #: "unsharded") -> DynamoDB items (empty without index tables).
    shard_items: Dict[str, int] = field(default_factory=dict)

    def store(self, name: str) -> ThroughputUtilization:
        """Look a store's utilisation up by name."""
        for entry in self.stores:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def queue(self, name: str) -> QueueHealth:
        """Look a queue's health up by name."""
        for entry in self.queues:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = ["Resource report @ t={:.1f}s".format(self.time_s)]
        lines.append("  stores:")
        for entry in self.stores:
            lines.append(
                "    {:<16} {:>8} reqs  {:>12.0f} units  "
                "mean wait {:.3f}s  backlog {:.3f}s{}".format(
                    entry.name, entry.requests, entry.total_units,
                    entry.mean_queue_delay_s, entry.backlog_s,
                    "  [SATURATED]" if entry.saturated else ""))
        lines.append("  instances:")
        for entry in self.instances:
            lines.append("    {:<12} {:<3} up {:>8.1f}s  busy {:.0%}".format(
                entry.instance_id, entry.instance_type, entry.uptime_s,
                entry.busy_fraction))
        lines.append("  queues:")
        for entry in self.queues:
            lines.append(
                "    {:<18} visible {:>4}  in-flight {:>3}  "
                "redelivered {:>3}  dead-lettered {:>3}".format(
                    entry.name, entry.visible, entry.in_flight,
                    entry.redelivered, entry.dead_lettered))
        if self.fault_counts:
            lines.append("  faults injected:")
            for key in sorted(self.fault_counts):
                lines.append("    {:<28} {}".format(
                    key, self.fault_counts[key]))
        if self.retry_counts:
            lines.append("  retries:")
            for key in sorted(self.retry_counts):
                lines.append("    {:<28} {}".format(
                    key, self.retry_counts[key]))
        if self.index_epochs:
            lines.append("  index epochs:")
            for entry in self.index_epochs:
                lines.append("    {}".format(entry))
        if self.table_health:
            lines.append("  table health:")
            for table in sorted(self.table_health):
                lines.append("    {:<28} {}".format(
                    table, self.table_health[table]))
        if self.downgrades:
            lines.append("  query downgrades:")
            for name in sorted(self.downgrades):
                lines.append("    {:<28} {}".format(
                    name, self.downgrades[name]))
        if self.store_cache:
            lines.append("  store cache:")
            lines.append(
                "    {:.0f} entries  {:.0f}/{:.0f} bytes  "
                "hit ratio {:.1%}  hits {:.0f}  misses {:.0f}  "
                "evictions {:.0f}  invalidations {:.0f}".format(
                    self.store_cache.get("entries", 0.0),
                    self.store_cache.get("bytes", 0.0),
                    self.store_cache.get("max_bytes", 0.0),
                    self.store_cache.get("hit_ratio", 0.0),
                    self.store_cache.get("hits", 0.0),
                    self.store_cache.get("misses", 0.0),
                    self.store_cache.get("evictions", 0.0),
                    self.store_cache.get("invalidations", 0.0)))
        if self.shard_items:
            lines.append("  shard balance (stored items):")
            for shard in sorted(self.shard_items):
                lines.append("    {:<28} {}".format(
                    shard, self.shard_items[shard]))
        lines.append("  requests:")
        for key in sorted(self.request_counts):
            lines.append("    {:<28} {}".format(key,
                                                self.request_counts[key]))
        return "\n".join(lines)


def _limiter_utilization(limiter, name: str) -> ThroughputUtilization:
    mean_delay = (limiter.total_queue_delay / limiter.requests
                  if limiter.requests else 0.0)
    return ThroughputUtilization(
        name=name, requests=limiter.requests,
        total_units=limiter.total_units,
        mean_queue_delay_s=mean_delay,
        backlog_s=limiter.backlog_seconds)


def resource_report(warehouse) -> ResourceReport:
    """Snapshot a warehouse's resource state (cheap, side-effect free)."""
    cloud = warehouse.cloud
    report = ResourceReport(time_s=cloud.env.now)
    report.stores = [
        _limiter_utilization(cloud.dynamodb.write_limiter, "dynamodb-write"),
        _limiter_utilization(cloud.dynamodb.read_limiter, "dynamodb-read"),
        _limiter_utilization(cloud.simpledb._write_limiter, "simpledb-write"),
        _limiter_utilization(cloud.simpledb._read_limiter, "simpledb-read"),
    ]
    report.instances = [
        InstanceUtilization(
            instance_id=instance.instance_id,
            instance_type=instance.itype.name,
            uptime_s=instance.uptime_seconds,
            busy_ecu_s=instance.busy_ecu_seconds)
        for instance in cloud.ec2.instances()]
    # Every queue the deployment actually has — on a chaos deployment
    # that includes the dead-letter queues next to the work queues.
    for queue_name in cloud.sqs.queue_names():
        report.queues.append(QueueHealth(
            name=queue_name,
            visible=cloud.sqs.approximate_depth(queue_name),
            in_flight=cloud.sqs.in_flight_count(queue_name),
            redelivered=cloud.sqs.redelivered_count(queue_name),
            dead_lettered=cloud.sqs.dead_lettered_count(queue_name)))
    totals = cloud.meter.totals()
    report.request_counts = {
        "{}:{}".format(service, operation): count
        for (service, operation), count in sorted(totals.requests.items())}
    registry = cloud.telemetry.registry
    if cloud.faults is not None:
        report.fault_counts = counter_dict(registry,
                                           "faults_injected_total")
    if cloud.resilient.client is not None:
        report.retry_counts = counter_dict(registry, "retries_total")
    # Consistency subsystem state, when the deployment has any: the
    # manifest's epoch records and the health registry's findings.
    from repro.consistency import Manifest
    manifest = Manifest(cloud.dynamodb)
    if manifest.exists:
        report.index_epochs = [
            "{} e{} {}".format(record.name, record.epoch, record.status)
            for record in manifest.list_records()]
    health = warehouse._health
    if health is not None:
        report.table_health = health.suspect_tables()
        report.downgrades = counter_dict(registry, "downgrades_total")
    # Storage-access layer state: the shared cache's counters and the
    # per-shard item balance over the deployment's index tables.
    cache = warehouse.index_cache
    if cache is not None:
        report.store_cache = cache.stats()
    from repro.store.sharding import SHARD_SEPARATOR
    for table_name in cloud.dynamodb.table_names():
        if not table_name.startswith("idx-"):
            continue
        base, sep, ordinal = table_name.rpartition(SHARD_SEPARATOR)
        bucket = (SHARD_SEPARATOR + ordinal
                  if sep and ordinal.isdigit() else "unsharded")
        items = len(cloud.dynamodb.table(table_name).all_items())
        report.shard_items[bucket] = \
            report.shard_items.get(bucket, 0) + items
    return report
