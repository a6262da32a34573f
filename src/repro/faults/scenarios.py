"""End-to-end chaos scenarios: the §3 fault-tolerance claims, tested.

The paper leans on AWS's building blocks for fault tolerance: "if an
instance fails while processing a message, the message will not have
been deleted from the queue, and its lease will eventually lapse, at
which point another instance can process it".  A scenario makes that
claim falsifiable in the simulator: the same corpus and workload run
twice on two fresh clouds — once fault-free (the *baseline*), once
under a seeded :class:`~repro.faults.FaultPlan` (the *chaos* run) —
and the runs are compared on three invariants:

1. **Exactly-once indexing** — the chaos run's index holds exactly the
   baseline's logical content (per logical table:
   ``key → uri → payload set``), despite redeliveries re-writing some
   batches physically;
2. **Answer stability** — every workload query returns the same rows,
   bytes and result payload;
3. **Bounded cost of recovery** — the chaos bill is at least the
   baseline's (failed requests, retries and redone work are billed, as
   on AWS) but within a configurable factor of it.

Three canned scenarios exercise the distinct failure modes:

- ``loader-crash`` — an EC2 loader dies mid-build; its SQS leases
  lapse and a replacement instance finishes the work;
- ``throttle-storm`` — DynamoDB rejects with
  ``ProvisionedThroughputExceeded`` (both injected bursts and the
  backlog-based throttle mode), and backoff spreads the load out;
- ``flaky-network`` — transient S3/SQS errors plus latency spikes on
  the document store, absorbed by the retry layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cloud.provider import CloudProvider
from repro.config import ScaleProfile
from repro.costs.estimator import CostBreakdown, _price_requests
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.indexing.mapper import simpledb_item_key
from repro.query.workload import workload_query
from repro.telemetry.registry import counter_dict
from repro.warehouse.warehouse import RESULTS_BUCKET, Warehouse
from repro.xmark.corpus import generate_corpus

#: Logical index content: logical table -> key -> uri -> payload values.
IndexSnapshot = Dict[str, Dict[str, Dict[str, FrozenSet[Any]]]]

#: Names of the canned scenarios, in presentation order.  The first
#: three compare a fault-free and a faulty run of the same pipeline;
#: ``scrub-repair`` damages a committed index at rest and exercises
#: detection, degraded querying, and targeted repair.
SCENARIO_NAMES = ("loader-crash", "throttle-storm", "flaky-network",
                  "scrub-repair")

#: What every scenario run holds fixed: the queries it answers, the
#: loaders' write-batch size and the work queues' lease (short, so a
#: crashed loader's batch comes back within the run).
SCENARIO_QUERIES = ("q1", "q2", "q5")
SCENARIO_BATCH_SIZE = 4
SCENARIO_VISIBILITY_TIMEOUT_S = 6.0
#: Invariant 3: the chaos run may cost at most this many baseline runs.
COST_BOUND = 5.0
#: The scrub-repair scenario's fallback index, queries and damage.
SCRUB_FALLBACK_STRATEGY = "LU"
SCRUB_QUERIES = ("q1", "q2")
SCRUB_CORRUPT_ITEMS = 2
SCRUB_DROPPED_PARTITIONS = 1


@dataclass(frozen=True)
class ScenarioSpec:
    """One canned chaos scenario: a name plus its fault-plan recipe."""

    name: str
    description: str
    #: (seed, error_rate, crash_after_s) -> FaultPlan for the chaos run.
    make_plan: Callable[[int, float, float], FaultPlan]
    #: Whether the chaos cloud's DynamoDB runs in throttle mode.
    throttle_mode: bool = False


def _loader_crash_plan(seed: int, error_rate: float,
                       crash_after_s: float) -> FaultPlan:
    return FaultPlan(seed=seed).crash(
        role="loader", after_s=crash_after_s, worker=0)


def _throttle_storm_plan(seed: int, error_rate: float,
                         crash_after_s: float) -> FaultPlan:
    # A burst of rejections early in the build, when the loaders hammer
    # the write capacity hardest.
    return FaultPlan(seed=seed).throttle(
        rate=min(1.0, error_rate * 4.0), service="dynamodb",
        start_s=0.0, end_s=crash_after_s + 20.0)


def _flaky_network_plan(seed: int, error_rate: float,
                        crash_after_s: float) -> FaultPlan:
    return (FaultPlan(seed=seed)
            .transient_errors("s3", rate=error_rate)
            .transient_errors("sqs", rate=error_rate / 2.0)
            .latency_spike("s3", extra_s=0.05, rate=error_rate))


SCENARIOS: Dict[str, ScenarioSpec] = {
    "loader-crash": ScenarioSpec(
        name="loader-crash",
        description="an EC2 loader dies mid-build; SQS redelivers its "
                    "messages to a replacement instance",
        make_plan=_loader_crash_plan),
    "throttle-storm": ScenarioSpec(
        name="throttle-storm",
        description="DynamoDB rejects writes with "
                    "ProvisionedThroughputExceeded; backoff absorbs it",
        make_plan=_throttle_storm_plan,
        throttle_mode=True),
    "flaky-network": ScenarioSpec(
        name="flaky-network",
        description="transient S3/SQS errors and latency spikes, "
                    "retried transparently",
        make_plan=_flaky_network_plan),
}


@dataclass(frozen=True)
class QueryAnswer:
    """One query's externally observable answer."""

    name: str
    result_rows: int
    result_bytes: int
    docs_with_results: int
    payload: bytes


@dataclass
class RunOutcome:
    """Everything a scenario compares about one warehouse run."""

    snapshot: IndexSnapshot
    answers: List[QueryAnswer]
    cost: CostBreakdown
    documents_indexed: int
    fault_counts: Dict[str, int] = field(default_factory=dict)
    retry_counts: Dict[str, int] = field(default_factory=dict)
    redelivered: int = 0
    dead_lettered: int = 0
    throttled: int = 0
    crashed_instances: int = 0


@dataclass
class ScenarioReport:
    """The verdict of one scenario: invariants plus the numbers."""

    name: str
    description: str
    seed: int
    documents: int
    queries: Tuple[str, ...]
    baseline: RunOutcome
    chaos: RunOutcome
    cost_bound: float

    @property
    def index_identical(self) -> bool:
        """Invariant 1: same logical index content."""
        return self.baseline.snapshot == self.chaos.snapshot

    @property
    def answers_identical(self) -> bool:
        """Invariant 2: same answer for every workload query."""
        return self.baseline.answers == self.chaos.answers

    @property
    def cost_overhead(self) -> float:
        """Dollars the faults added to the bill."""
        return self.chaos.cost.total - self.baseline.cost.total

    @property
    def cost_bounded(self) -> bool:
        """Invariant 3: recovery cost no more than ``cost_bound`` x."""
        return (self.chaos.cost.total + 1e-12
                >= self.baseline.cost.total
                and self.chaos.cost.total
                <= self.baseline.cost.total * self.cost_bound)

    @property
    def faults_fired(self) -> bool:
        """The chaos run actually experienced faults (else it proved
        nothing)."""
        return (sum(self.chaos.fault_counts.values())
                + self.chaos.throttled
                + self.chaos.crashed_instances) > 0

    @property
    def invariant_holds(self) -> bool:
        """All three invariants, plus evidence that chaos happened."""
        return (self.index_identical and self.answers_identical
                and self.cost_bounded and self.faults_fired)

    def render(self) -> str:
        """Human-readable scenario summary."""
        check = {True: "PASS", False: "FAIL"}
        lines = [
            "Chaos scenario '{}' (seed {}, {} documents, queries {})"
            .format(self.name, self.seed, self.documents,
                    ",".join(self.queries)),
            "  {}".format(self.description),
            "  faults injected: {}".format(
                ", ".join("{}={}".format(k, v) for k, v in
                          sorted(self.chaos.fault_counts.items()))
                or "none"),
            "  retries: {}   redelivered: {}   dead-lettered: {}   "
            "throttled: {}   crashed instances: {}".format(
                sum(self.chaos.retry_counts.values()),
                self.chaos.redelivered, self.chaos.dead_lettered,
                self.chaos.throttled, self.chaos.crashed_instances),
            "  index identical:   {}".format(check[self.index_identical]),
            "  answers identical: {}".format(check[self.answers_identical]),
            "  cost baseline ${:.6f} -> chaos ${:.6f} "
            "(overhead ${:.6f}, bound {:.1f}x): {}".format(
                self.baseline.cost.total, self.chaos.cost.total,
                self.cost_overhead, self.cost_bound,
                check[self.cost_bounded]),
            "  verdict: {}".format(
                check[self.invariant_holds]),
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Snapshotting and comparison helpers
# ---------------------------------------------------------------------------


def index_snapshot(warehouse: Warehouse, built) -> IndexSnapshot:
    """The *logical* content of a built index, physical layout erased.

    Redelivered loader batches change the physical story — fresh UUID
    range keys, re-packed items, duplicate chunks — but never the
    logical one.  Flattening each table to ``key → URI → set of
    payload values`` makes the exactly-once claim a dict equality.
    """
    cloud = warehouse.cloud
    snapshot: IndexSnapshot = {}
    for logical in sorted(built.table_names):
        physical = built.table_names[logical]
        flat: Dict[str, Dict[str, set]] = {}
        if built.store.backend_name == "dynamodb":
            for item in cloud.dynamodb.table(physical).all_items():
                per_key = flat.setdefault(item.hash_key, {})
                for uri, values in item.attributes.items():
                    if uri != CHECKSUM_ATTR:
                        per_key.setdefault(uri, set()).update(values)
        else:
            for item in cloud.simpledb.domain(physical).all_items():
                per_key = flat.setdefault(simpledb_item_key(item.name), {})
                for attr_uri, value in item.attributes:
                    per_key.setdefault(attr_uri, set()).add(value)
        snapshot[logical] = {
            key: {uri: frozenset(values) for uri, values in uris.items()}
            for key, uris in flat.items()}
    return snapshot


def _run_cost(warehouse: Warehouse) -> CostBreakdown:
    """The whole run's bill: every request priced, EC2 by uptime.

    Instance-hours are charged per instance actually run (crashed
    originals *and* their replacements), not per phase plan — a
    recovery that launches an extra VM must show up on the bill.
    """
    book = warehouse.cloud.price_book
    out = _price_requests(warehouse.cloud.meter, book, tag_prefix="")
    for instance in warehouse.cloud.ec2.instances():
        out.ec2 += (book.vm_hourly(instance.itype.name)
                    * instance.uptime_seconds / 3600.0)
    return out


def _execute_run(plan: Optional[FaultPlan], throttle_mode: bool,
                 documents: int, seed: int, strategy: str,
                 instances: int, backend: str) -> RunOutcome:
    """One full upload → build → query pipeline on a fresh cloud."""
    corpus = generate_corpus(ScaleProfile(documents=documents, seed=seed))
    cloud = CloudProvider(fault_plan=plan)
    if throttle_mode:
        cloud.dynamodb.enable_throttle_mode()
    warehouse = Warehouse(cloud, deployment={
        "visibility_timeout": SCENARIO_VISIBILITY_TIMEOUT_S})
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index(strategy, loaders=instances,
                                  batch_size=SCENARIO_BATCH_SIZE,
                                  backend=backend)
    report = warehouse.run_workload(
        [workload_query(name) for name in SCENARIO_QUERIES], built,
        workers=1)

    answers = []
    for execution in report.executions:
        answers.append(QueryAnswer(
            name=execution.name,
            result_rows=execution.result_rows,
            result_bytes=execution.result_bytes,
            docs_with_results=execution.docs_with_results,
            payload=_result_payload(warehouse, execution)))

    redelivered = sum(cloud.sqs.redelivered_count(q)
                      for q in cloud.sqs.queue_names())
    dead_lettered = sum(cloud.sqs.dead_lettered_count(q)
                        for q in cloud.sqs.queue_names())
    return RunOutcome(
        snapshot=index_snapshot(warehouse, built),
        answers=answers,
        cost=_run_cost(warehouse),
        documents_indexed=built.report.documents,
        fault_counts=(counter_dict(cloud.telemetry.registry,
                                   "faults_injected_total")
                      if cloud.faults is not None else {}),
        retry_counts=(counter_dict(cloud.telemetry.registry,
                                   "retries_total")
                      if cloud.resilient.client is not None else {}),
        redelivered=redelivered,
        dead_lettered=dead_lettered,
        throttled=cloud.dynamodb.throttled_total,
        crashed_instances=sum(1 for instance in cloud.ec2.instances()
                              if instance.crashed))


def _result_payload(warehouse: Warehouse, execution) -> bytes:
    """The stored result object for one execution, read meter-free.

    Lines are canonicalised by sorting: result rows come from unordered
    path evaluation over per-document partial results, so retries and
    redeliveries may legally permute them — the *answer* is the
    multiset of rows.
    """
    key = "results/{}.txt".format(execution.query_id)
    data = warehouse.cloud.s3.peek(RESULTS_BUCKET, key).data
    return b"\n".join(sorted(data.split(b"\n")))


def run_scenario(name: str, documents: int = 16, seed: int = 7,
                 strategy: str = "LU", instances: int = 2,
                 backend: str = "dynamodb",
                 error_rate: float = 0.08,
                 crash_after_s: float = 0.5) -> ScenarioReport:
    """Run one canned scenario and report on the three invariants.

    The baseline and chaos runs see identical corpora, identical
    submission orders and identical configurations; the only difference
    is the fault plan (and, for ``throttle-storm``, DynamoDB's throttle
    mode).  Everything is deterministic in ``seed``.
    """
    if name == "scrub-repair":
        raise ConfigError(
            "scrub-repair is a damage scenario; run it with "
            "run_scrub_repair_scenario()")
    try:
        spec = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            "unknown scenario {!r}; choose from {}".format(
                name, ", ".join(SCENARIO_NAMES))) from None
    common = dict(documents=documents, seed=seed, strategy=strategy,
                  instances=instances, backend=backend)
    baseline = _execute_run(plan=None, throttle_mode=False, **common)
    chaos = _execute_run(
        plan=spec.make_plan(seed, error_rate, crash_after_s),
        throttle_mode=spec.throttle_mode, **common)
    return ScenarioReport(
        name=name, description=spec.description, seed=seed,
        documents=documents, queries=SCENARIO_QUERIES,
        baseline=baseline, chaos=chaos, cost_bound=COST_BOUND)


# ---------------------------------------------------------------------------
# The scrub-repair scenario: damage at rest, degradation, targeted repair
# ---------------------------------------------------------------------------


def physical_snapshot(warehouse: Warehouse, built) -> Dict[str, Any]:
    """Byte-level content of an index's tables (order-insensitive).

    Content-addressed items make repair *physically* idempotent, so the
    scrub-repair invariant is stronger than the logical one: a repaired
    table equals the undamaged table item-for-item, checksums included.
    """
    cloud = warehouse.cloud
    snapshot: Dict[str, Any] = {}
    for logical in sorted(built.table_names):
        physical = built.table_names[logical]
        snapshot[logical] = sorted(
            (item.hash_key, item.range_key,
             tuple(sorted((name, tuple(values))
                          for name, values in item.attributes.items())))
            for item in cloud.dynamodb.table(physical).all_items())
    return snapshot


@dataclass
class ScrubScenarioReport:
    """Verdict of one scrub-repair scenario run."""

    seed: int
    documents: int
    strategy: str
    fallback_strategy: str
    queries: Tuple[str, ...]
    #: Trail of the damage the corruption monkey actually applied.
    damage_applied: List[str]
    corrupt_items: int
    dropped_partitions: int
    #: Detect-only scrub over the damaged index.
    pre_scrub: Any
    #: The repairing scrub.
    repair_scrub: Any
    #: Detect-only scrub after repair (must be clean).
    verify_scrub: Any
    baseline_answers: List[QueryAnswer]
    degraded_answers: List[QueryAnswer]
    repaired_answers: List[QueryAnswer]
    #: Downgrade counts from the health registry after the degraded run.
    downgrades: Dict[str, int]
    #: Whether the repaired tables equal the pre-damage tables byte-wise.
    snapshot_identical: bool
    #: Priced cost of all scrub work (detection + repair traffic).
    scrub_cost: CostBreakdown
    name: str = "scrub-repair"

    @property
    def damage_detected(self) -> bool:
        """Every injected corruption surfaced in the detect scrub."""
        checksum_ok = (self.pre_scrub.checksum_failures
                       >= self.corrupt_items)
        partitions_ok = (self.dropped_partitions == 0
                         or self.pre_scrub.missing_entries > 0)
        return (bool(self.damage_applied) and checksum_ok
                and partitions_ok)

    @property
    def degraded_answers_match(self) -> bool:
        """Damaged-index queries still answered correctly (degraded)."""
        return self.degraded_answers == self.baseline_answers

    @property
    def degradation_used(self) -> bool:
        """The degraded run actually fell back (else it proved nothing)."""
        return sum(self.downgrades.values()) > 0

    @property
    def repaired_clean(self) -> bool:
        """Post-repair verification scrub found nothing wrong."""
        return self.repair_scrub.repaired and self.verify_scrub.clean

    @property
    def repaired_answers_match(self) -> bool:
        """Post-repair queries equal the clean baseline."""
        return self.repaired_answers == self.baseline_answers

    @property
    def invariant_holds(self) -> bool:
        """All scrub-repair invariants at once."""
        return (self.damage_detected and self.degraded_answers_match
                and self.degradation_used and self.repaired_clean
                and self.repaired_answers_match
                and self.snapshot_identical)

    def render(self) -> str:
        """Human-readable scenario summary."""
        check = {True: "PASS", False: "FAIL"}
        lines = [
            "Chaos scenario 'scrub-repair' (seed {}, {} documents, "
            "queries {})".format(self.seed, self.documents,
                                 ",".join(self.queries)),
            "  a committed {} index is damaged at rest; queries degrade "
            "to {}; the scrubber repairs it".format(
                self.strategy, self.fallback_strategy),
            "  damage applied:",
        ]
        for entry in self.damage_applied:
            lines.append("    {}".format(entry))
        lines.append("  detect: {}".format(self.pre_scrub.summary_line()))
        lines.append("  repair: {}".format(
            self.repair_scrub.summary_line()))
        lines.append("  verify: {}".format(
            self.verify_scrub.summary_line()))
        lines.append("  downgrades: {}".format(
            ", ".join("{}={}".format(k, v)
                      for k, v in sorted(self.downgrades.items()))
            or "none"))
        lines.append("  damage detected:        {}".format(
            check[self.damage_detected]))
        lines.append("  degraded answers match: {} (degradation used: {})"
                     .format(check[self.degraded_answers_match],
                             check[self.degradation_used]))
        lines.append("  repaired clean:         {}".format(
            check[self.repaired_clean]))
        lines.append("  repaired answers match: {}".format(
            check[self.repaired_answers_match]))
        lines.append("  tables byte-identical:  {}".format(
            check[self.snapshot_identical]))
        lines.append("  scrub cost: ${:.6f}".format(self.scrub_cost.total))
        lines.append("  verdict: {}".format(check[self.invariant_holds]))
        return "\n".join(lines)


def _workload_answers(warehouse: Warehouse, report) -> List[QueryAnswer]:
    """Collect the externally observable answers of one workload run."""
    return [QueryAnswer(name=execution.name,
                        result_rows=execution.result_rows,
                        result_bytes=execution.result_bytes,
                        docs_with_results=execution.docs_with_results,
                        payload=_result_payload(warehouse, execution))
            for execution in report.executions]


def run_scrub_repair_scenario(documents: int = 12, seed: int = 7,
                              strategy: str = "2LUPI",
                              instances: int = 2) -> ScrubScenarioReport:
    """One full damage → degrade → repair cycle on one cloud.

    The pipeline: checkpointed builds of ``strategy`` (the primary) and
    the fallback strategy; a clean workload run fixes the baseline
    answers; the corruption monkey applies the plan's damage to the
    primary's tables; a detect-only scrub quarantines them; a degraded
    workload answers through the fallback chain; a repairing scrub
    restores the primary byte-identically; a final workload run checks
    the repaired index answers like the clean one.  Deterministic in
    ``seed``.
    """
    from repro.consistency import Manifest
    from repro.faults.corruption import CorruptionMonkey

    corpus = generate_corpus(ScaleProfile(documents=documents, seed=seed))
    warehouse = Warehouse(CloudProvider())
    warehouse.upload_corpus(corpus)
    primary, record = warehouse.build_index_checkpointed(
        strategy, loaders=instances, batch_size=SCENARIO_BATCH_SIZE)
    fallback, _ = warehouse.build_index_checkpointed(
        SCRUB_FALLBACK_STRATEGY, loaders=instances,
        batch_size=SCENARIO_BATCH_SIZE)
    query_list = [workload_query(name) for name in SCRUB_QUERIES]

    before = physical_snapshot(warehouse, primary)
    baseline = _workload_answers(warehouse, warehouse.run_workload(
        query_list, primary, workers=1))

    plan = (FaultPlan(seed=seed)
            .corrupt_item(table=0, count=SCRUB_CORRUPT_ITEMS)
            .drop_table_partition(table=len(primary.physical_tables) - 1,
                                  count=SCRUB_DROPPED_PARTITIONS))
    monkey = CorruptionMonkey(warehouse.cloud, seed=seed)
    applied = monkey.damage_index(primary, plan.damage)

    pre = warehouse.scrub_index(primary, record.name, record.epoch,
                                repair=False)
    degraded = _workload_answers(warehouse, warehouse.run_degraded_workload(
        query_list, [primary, fallback], workers=1))
    downgrades = counter_dict(warehouse.cloud.telemetry.registry,
                              "downgrades_total")

    repair = warehouse.scrub_index(primary, record.name, record.epoch,
                                   repair=True)
    verify = warehouse.scrub_index(primary, record.name, record.epoch,
                                   repair=False)
    after = physical_snapshot(warehouse, primary)
    repaired = _workload_answers(warehouse, warehouse.run_workload(
        query_list, primary, workers=1))

    from repro.costs.estimator import scrub_cost as _scrub_cost
    return ScrubScenarioReport(
        seed=seed, documents=documents, strategy=strategy,
        fallback_strategy=SCRUB_FALLBACK_STRATEGY, queries=SCRUB_QUERIES,
        damage_applied=applied,
        corrupt_items=sum(1 for entry in applied
                          if entry.startswith("corrupt-item")),
        dropped_partitions=sum(1 for entry in applied
                               if entry.startswith("drop-table-partition")),
        pre_scrub=pre, repair_scrub=repair, verify_scrub=verify,
        baseline_answers=baseline, degraded_answers=degraded,
        repaired_answers=repaired, downgrades=downgrades,
        snapshot_identical=before == after,
        scrub_cost=_scrub_cost(warehouse))
