"""Warehouse orchestration: the experiment-level API.

A :class:`Warehouse` owns a :class:`~repro.cloud.provider.CloudProvider`
deployment (buckets, queues, index tables) and drives the three
operations every experiment is built from:

- :meth:`Warehouse.upload_corpus` — store the document set in S3;
- :meth:`Warehouse.build_index` — run loader instances over the corpus
  for one strategy, producing a :class:`BuiltIndex` plus the Table 4
  style timing report;
- :meth:`Warehouse.run_workload` / :meth:`Warehouse.run_query` — run
  query-processor instances over a query list (with or without an
  index), producing per-query :class:`QueryExecution` records carrying
  the Figure 9 decomposition and the Table 5 document counts.

Every phase is tagged on the meter, so the cost model can price
index builds and individual queries separately (Tables 6, Figures
11-13).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, Union)

from repro.cloud.provider import CloudProvider
from repro.cloud.sqs import RedrivePolicy
from repro.errors import WarehouseError
from repro.faults.plan import MAX_RECEIVE_COUNT
from repro.indexing.base import IndexingStrategy
from repro.indexing.mapper import (DynamoIndexStore, IndexStore,
                                   SimpleDBIndexStore)
from repro.indexing.registry import strategy as strategy_by_name
from repro.query.pattern import Query
from repro.store import AnswerMemo, IndexCache, StoreRouter
from repro.telemetry.costing import span_inclusive_costs
from repro.warehouse.deployment import LOADER_TYPE, DeploymentConfig
from repro.warehouse.driver import QueryDriver
from repro.warehouse.fleet import Fleet
from repro.warehouse.frontend import Frontend, check_document_uris
from repro.warehouse.loader import IndexerWorker, LoaderWorkerStats
from repro.warehouse.messages import LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE
from repro.warehouse.query_processor import QueryWorker, QueryWorkStats
from repro.xmark.corpus import Corpus

DOCUMENT_BUCKET = "documents"
RESULTS_BUCKET = "results"

#: Suffix of the dead-letter queues created alongside the work queues
#: when the cloud carries a fault plan.
DLQ_SUFFIX = "-dlq"


@dataclass
class PhaseRecord:
    """One metered phase: which instances ran for how long, under what tag."""

    tag: str
    instance_type: str
    instances: int
    started_at: float
    ended_at: float

    @property
    def duration_s(self) -> float:
        """Phase length in simulated seconds."""
        return self.ended_at - self.started_at

    @property
    def vm_hours(self) -> float:
        """Fractional instance-hours (the §7 formulas use task time)."""
        return self.duration_s / 3600.0 * self.instances


@dataclass
class IndexBuildReport:
    """Table 4-style report for one index build."""

    strategy_name: str
    include_words: bool
    tag: str
    instance_type: str
    instances: int
    documents: int
    #: ``tidx`` — first load message retrieved → last message deleted.
    total_s: float
    #: Mean per-instance wall seconds spent extracting entries.
    avg_extraction_s: float
    #: Mean per-instance wall seconds spent uploading to the index store.
    avg_upload_s: float
    #: ``|op(D, I)|`` — billable index put operations.
    puts: int
    items: int
    batches: int
    entries: int
    ids: int
    paths: int
    #: ``sr(D, I)`` / ``ovh(D, I)`` / ``s(D, I)`` in bytes (§7.1).
    raw_bytes: int
    overhead_bytes: int
    stored_bytes: int
    vm_hours: float


@dataclass
class BuiltIndex:
    """Handle to a built index: strategy + store + physical tables."""

    strategy: IndexingStrategy
    store: IndexStore
    table_names: Dict[str, str]
    report: IndexBuildReport

    def make_lookup(self, tracer: Any):
        """The strategy's look-up planner over this index, tracing on
        ``tracer``."""
        return self.strategy.make_lookup(self.store, self.table_names,
                                         tracer)

    @property
    def physical_tables(self) -> List[str]:
        """Physical table names backing this index."""
        return [self.table_names[t] for t in self.strategy.logical_tables]

    def stored_bytes(self) -> int:
        """Current billable index storage, ``s(D, I)``."""
        return self.store.stored_bytes(self.physical_tables)


def _built_index(strategy: IndexingStrategy, store: IndexStore,
                 table_names: Dict[str, str], phase: PhaseRecord,
                 stats: Sequence[LoaderWorkerStats]) -> BuiltIndex:
    """Roll one build phase's loader stats up into a ``BuiltIndex``."""
    active = [s for s in stats if s.documents]
    first_receive = min((s.first_receive for s in active
                         if s.first_receive is not None),
                        default=phase.started_at)
    last_delete = max((s.last_delete for s in active),
                      default=phase.ended_at)
    raw, overhead, stored = store.storage_bytes(
        [table_names[t] for t in strategy.logical_tables])
    report = IndexBuildReport(
        strategy_name=strategy.name,
        include_words=strategy.include_words,
        tag=phase.tag,
        instance_type=phase.instance_type,
        instances=phase.instances,
        documents=sum(s.documents for s in stats),
        total_s=last_delete - first_receive,
        avg_extraction_s=(sum(s.extraction_s for s in active)
                          / len(active)) if active else 0.0,
        avg_upload_s=(sum(s.upload_s for s in active)
                      / len(active)) if active else 0.0,
        puts=sum(s.writes.puts for s in stats),
        items=sum(s.writes.items for s in stats),
        batches=sum(s.writes.batches for s in stats),
        entries=sum(s.extraction.entries for s in stats),
        ids=sum(s.extraction.ids for s in stats),
        paths=sum(s.extraction.paths for s in stats),
        raw_bytes=raw,
        overhead_bytes=overhead,
        stored_bytes=stored,
        vm_hours=phase.vm_hours,
    )
    return BuiltIndex(strategy=strategy, store=store,
                      table_names=table_names, report=report)


@dataclass
class QueryExecution:
    """One query's measurements (Figure 9 + Table 5 + cost inputs)."""

    name: str
    strategy_name: str          # "none" for the no-index baseline
    instance_type: str
    instances: int
    tag: str
    #: User-perceived response time: submit → results fetched.
    response_s: float
    #: ``ptq`` / ``pt``: worker message retrieved → deleted.
    processing_s: float
    lookup_get_s: float
    lookup_plan_s: float
    fetch_eval_s: float
    #: Table 5 "# Doc. IDs from index" (per-pattern sum).
    docs_from_index: int
    per_pattern_docs: List[int]
    #: ``|Dq_I|`` — documents actually fetched from S3.
    documents_fetched: int
    #: Table 5 "# Docs. with results".
    docs_with_results: int
    result_rows: int
    #: ``|r(q)|`` in bytes.
    result_bytes: int
    #: ``|op(q, D, I)|`` — billable index get operations.
    index_gets: int
    rows_processed: int
    #: Front-end query id (keys the stored result object).
    query_id: int = 0
    #: How the look-up was resolved: a strategy name, "none" for the
    #: no-index baseline, "s3-scan" for a fully degraded query, or
    #: "mixed" when patterns of one query fell back differently.
    index_mode: str = ""
    #: Telemetry span id of this query's processing span.
    span_id: int = 0
    #: Index reads served by the shared store cache during this query's
    #: look-up (0 when no cache is configured).
    store_cache_hits: int = 0
    #: Non-empty when the query did not run on the workload's nominal
    #: strategy: the fallback actually used ("s3-scan", "mixed", or
    #: another strategy's name).
    downgrade: str = ""
    #: Request cost of this query's span subtree (a
    #: :class:`~repro.costs.estimator.CostBreakdown`), priced from the
    #: run's meter.
    cost: Optional[Any] = None


@dataclass
class WorkloadReport:
    """A workload run: per-query executions plus the makespan.

    The unified result shape: plain workloads, degraded workloads and
    the no-index full-scan path all return this, each execution
    carrying its span id, downgrade marker and per-query request cost.
    """

    executions: List[QueryExecution]
    strategy_name: str
    instance_type: str
    instances: int
    tag: str
    #: First submission → last result fetched (Figure 10's metric).
    makespan_s: float
    #: The run's :class:`~repro.telemetry.spans.Tracer`: pass to the
    #: exporters for a Chrome trace or console tree.
    trace: Optional[Any] = None
    #: Request cost of the whole workload span subtree
    #: (:class:`~repro.costs.estimator.CostBreakdown`).
    cost: Optional[Any] = None
    #: Telemetry span id of the workload phase span.
    span_id: int = 0


class Warehouse:
    """A deployed warehouse on one simulated cloud."""

    def __init__(self, cloud: Optional[CloudProvider] = None,
                 deployment: Optional[Any] = None) -> None:
        """Deploy a warehouse on ``cloud`` under one deployment config.

        ``deployment`` is a :class:`DeploymentConfig` (or a mapping of
        field overrides over the default one).
        """
        self.cloud = cloud or CloudProvider()
        resolved = DeploymentConfig.resolve(DeploymentConfig(), deployment)
        #: The deployment's frozen configuration: fleet shapes, store
        #: layout, queue lease, optional fault/autoscale/admission
        #: policies.  A call may vary only its own fleet's size and type
        #: and a build's backend (see :meth:`_sized`).
        self.deployment = resolved
        visibility_timeout = resolved.visibility_timeout
        #: One epoch-aware read cache shared by every index store of
        #: the deployment, so repeated workload runs hit across builds;
        #: ``None`` unless the configuration grants it a byte budget.
        self.index_cache: Optional[IndexCache] = (
            IndexCache(resolved.cache_bytes)
            if resolved.cache_bytes > 0 else None)
        self.cloud.s3.create_bucket(DOCUMENT_BUCKET)
        self.cloud.s3.create_bucket(RESULTS_BUCKET)
        # Dead-letter queues exist only on chaos deployments, so a
        # fault-free warehouse is physically identical to the seed.
        chaotic = self.cloud.faults is not None
        for queue in (LOADER_QUEUE, QUERY_QUEUE, RESPONSE_QUEUE):
            redrive = None
            if chaotic and queue in (LOADER_QUEUE, QUERY_QUEUE):
                dlq = queue + DLQ_SUFFIX
                self.cloud.sqs.create_queue(
                    dlq, visibility_timeout=visibility_timeout)
                redrive = RedrivePolicy(
                    dead_letter_queue=dlq,
                    max_receive_count=MAX_RECEIVE_COUNT)
            self.cloud.sqs.create_queue(
                queue, visibility_timeout=visibility_timeout,
                redrive_policy=redrive)
        self.frontend = Frontend(self.cloud, DOCUMENT_BUCKET, RESULTS_BUCKET)
        self.phases: List[PhaseRecord] = []
        self.corpus: Optional[Corpus] = None
        self._all_uris: List[str] = []
        self._build_ids = itertools.count(1)
        self._mutation_ids = itertools.count(1)
        self._serve_ids = itertools.count(1)
        #: Table-health registry shared by scrubs and degraded look-ups;
        #: created on first use (see :attr:`health`).
        self._health: Optional[Any] = None
        #: Shared host-side parse cache for query workers (see
        #: QueryWorker.parsed_documents: simulated CPU is unaffected).
        self._parse_cache: Dict[str, Any] = {}
        #: Shared host-side (text, name) -> Query memo of query workers
        #: (see QueryWorker.parsed_queries; bounded, never invalidated).
        self._parsed_queries: Dict[tuple, Any] = {}
        #: Look-up answers replayed by every router this warehouse makes
        #: (DESIGN §10, "Looked up once"), cache or no cache.
        self.answer_memo = AnswerMemo()
        #: Per index name, its latest run's coordinator, which holds the
        #: run's store (and its written forms) for :meth:`commit_build`.
        self._coordinators: Dict[str, Any] = {}

    @property
    def telemetry(self) -> Any:
        """The deployment's :class:`~repro.telemetry.TelemetryHub`."""
        return self.cloud.telemetry

    def _span(self, name: str, **attributes: Any):
        """A phase-level span."""
        return self.cloud.telemetry.span(name, **attributes)

    @classmethod
    def deploy(cls, config: Optional[Any] = None) -> "Warehouse":
        """Deploy a warehouse from one :class:`DeploymentConfig`.

        The one-stop constructor: the cloud is provisioned from the
        config itself (its ``faults`` plan becomes the cloud's fault
        plan).  ``config`` may also be a mapping of overrides over the
        default config.
        """
        resolved = DeploymentConfig.resolve(DeploymentConfig(), config)
        return cls(cloud=CloudProvider(fault_plan=resolved.faults),
                   deployment=resolved)

    def _sized(self, **sizes: Any) -> DeploymentConfig:
        """The deployment with one call's fleet sizes, types or backend
        (``None`` keeps the deployment's own); a value the deployment
        would refuse raises :class:`~repro.errors.ConfigError`."""
        changes = {field: value for field, value in sizes.items()
                   if value is not None}
        return (self.deployment.override(**changes) if changes
                else self.deployment)

    # -- corpus upload -----------------------------------------------------------

    def upload_corpus(self, corpus: Corpus, tag: str = "upload") -> None:
        """Store every corpus document in the file store (steps 1-2)."""
        uris = [doc.uri for doc in corpus.documents]
        check_document_uris(uris)
        self.corpus = corpus
        self._all_uris = uris
        self._parse_cache = {doc.uri: doc for doc in corpus.documents}

        def driver() -> Generator[Any, Any, None]:
            for uri in self._all_uris:
                yield from self.frontend.store_document(uri, corpus.data[uri])

        with self._span("upload", documents=len(self._all_uris)):
            with self.cloud.meter.tagged(tag):
                self.cloud.env.run_process(driver(), name="upload-corpus")

    # -- index building ------------------------------------------------------------

    def build_index(self, strategy: Union[str, IndexingStrategy],
                    loaders: Optional[int] = None,
                    batch_size: Optional[int] = None,
                    backend: Optional[str] = None,
                    include_words: bool = True) -> BuiltIndex:
        """Build one strategy's index over the uploaded corpus.

        Launches ``loaders`` loader VMs (large instances),
        enqueues one load request per document, and runs the pipeline to
        completion.  ``backend`` selects the index store ("dynamodb" or
        "simpledb" — the latter reproduces the [8] baseline of Tables
        7-8).  ``loaders``, ``batch_size`` and ``backend`` default to the
        deployment's.
        """
        cfg = self._sized(loaders=loaders, batch_size=batch_size,
                          backend=backend)
        if self.corpus is None:
            raise WarehouseError("upload_corpus() must run before build_index()")
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy, include_words=include_words)
        build_id = next(self._build_ids)
        tag = "index-build:{}:{}".format(strategy.name, build_id)

        store = self._make_store(cfg.backend, seed=build_id)
        table_names = {
            logical: "idx-{}-{}-{}".format(
                strategy.name.lower(), logical, build_id)
            for logical in strategy.logical_tables}
        for physical in table_names.values():
            store.create_table(physical)

        fleet = self._loader_fleet(store, strategy, table_names,
                                   cfg.batch_size)

        def driver() -> Generator[Any, Any, None]:
            self._launch_loaders(fleet, cfg.loaders)
            # Load requests are posted concurrently (documents "arrive"
            # independently at the scalable front end) so the loader
            # fleet — not the request rate — bounds indexing time.
            sends = [self.cloud.env.process(self.frontend.request_load(uri),
                                            name="send-{}".format(uri))
                     for uri in self._all_uris]
            for send in sends:
                yield send
            if self.cloud.faults is not None:
                # Fault-free builds skip the drain: their workers always
                # empty the queue before their pill, so timing stays
                # seed-identical.
                yield from fleet.drain(LOADER_QUEUE)
            yield from fleet.stop(LOADER_QUEUE)

        started_at = self.cloud.env.now
        with self._span("index-build", strategy=strategy.name,
                        backend=cfg.backend, instances=cfg.loaders):
            with self.cloud.meter.tagged(tag):
                self.cloud.env.run_process(
                    driver(), name="build-{}".format(strategy.name))
        phase = PhaseRecord(tag=tag, instance_type=LOADER_TYPE,
                            instances=cfg.loaders, started_at=started_at,
                            ended_at=self.cloud.env.now)
        self.phases.append(phase)
        # Aggregate over every worker that ran, including crashed ones
        # and their replacements: redone work is real work (and real
        # cost), and a crashed worker's partial stats describe it.
        return _built_index(strategy, store, table_names, phase,
                            [member.worker.stats
                             for member in fleet.launched])

    def _loader_fleet(self, store: IndexStore, strategy: IndexingStrategy,
                      table_names: Dict[str, str], batch_size: int,
                      ledger: Optional[Any] = None,
                      name: str = "loader") -> Fleet:
        """A loader fleet writing ``strategy``'s index into ``store``
        (through ``ledger``, the batch ledger of a checkpointed run)."""
        def worker(instance: Any) -> IndexerWorker:
            return IndexerWorker(self.cloud, instance, store, strategy,
                                 table_names, DOCUMENT_BUCKET,
                                 batch_size=batch_size, ledger=ledger)
        return Fleet(self.cloud, LOADER_TYPE, worker, name=name)

    def _launch_loaders(self, fleet: Fleet, count: int) -> None:
        """Launch a build's loaders and arm the fault plan's loader
        crashes: each replaces its victim, and the §3 recovery (lease
        lapse, SQS redelivery) finishes the job on the fresh instance."""
        fleet.launch(count)
        if self.cloud.faults is not None:
            for spec in self.cloud.faults.plan.crashes_for("loader"):
                fleet.crash_later(spec.after_s, victim=spec.worker,
                                  replace=True)

    def _query_fleet(self, instance_type: str, index: Optional[Any],
                     stats_sink: Dict[int, QueryWorkStats],
                     degraded: Optional[Callable[[Any], Any]] = None,
                     name: str = "qworker") -> Fleet:
        """A query-processor fleet answering over ``index`` (``None``:
        the no-index scan) into ``stats_sink``; ``degraded(tracer)``
        makes each worker's degraded look-up."""
        tracer = self.telemetry.tracer

        def worker(instance: Any) -> QueryWorker:
            return QueryWorker(
                self.cloud, instance,
                index.make_lookup(tracer) if index else None,
                DOCUMENT_BUCKET, RESULTS_BUCKET, self._all_uris, stats_sink,
                parsed_documents=self._parse_cache,
                parsed_queries=self._parsed_queries,
                degraded_lookup=(degraded(tracer)
                                 if degraded is not None else None))
        return Fleet(self.cloud, instance_type, worker, name=name)

    def _make_store(self, backend: str, seed: int,
                    range_key_mode: str = "uuid", epoch: int = 0,
                    dynamodb: Optional[Any] = None,
                    shards: Optional[int] = None) -> IndexStore:
        # Stores talk to the resilient facade (the raw service on a
        # fault-free cloud, the retry/breaker proxy under chaos) unless
        # handed another ``dynamodb`` client, such as a region switch.
        # Every store is handed out behind the one StoreRouter this
        # deployment's shards (or an epoch's own), cache and answer memo
        # describe; with one shard and no cache it is a pure passthrough.
        if dynamodb is None:
            dynamodb = self.cloud.resilient.dynamodb
        if backend == "dynamodb":
            base: IndexStore = DynamoIndexStore(
                dynamodb, seed=seed, range_key_mode=range_key_mode)
        elif backend == "simpledb":
            if range_key_mode != "uuid":
                raise WarehouseError(
                    "checkpointed builds need content-addressed items; "
                    "the simpledb backend does not support them")
            base = SimpleDBIndexStore(self.cloud.resilient.simpledb,
                                      seed=seed)
        else:
            raise WarehouseError(
                "unknown index backend {!r} (dynamodb or simpledb)".format(
                    backend))
        return StoreRouter(base, self.telemetry,
                           shards=shards or self.deployment.shards,
                           cache=self.index_cache, epoch=epoch,
                           answer_memo=self.answer_memo)

    # -- crash-consistent builds (repro.consistency) -----------------------------

    @property
    def health(self) -> Any:
        """Table-health registry shared by scrubs and degraded look-ups.

        Created lazily so deployments that never scrub or degrade carry
        no trace of the consistency subsystem.
        """
        if self._health is None:
            from repro.consistency import HealthRegistry
            self._health = HealthRegistry()
        return self._health

    def plan_build(self, strategy: Union[str, IndexingStrategy],
                   loaders: Optional[int] = None,
                   batch_size: Optional[int] = None) -> Any:
        """Plan a checkpointed build of the strategy's next epoch.

        The corpus is partitioned into fixed-composition batches *now*,
        and the target epoch is one past the currently committed epoch
        (1 for a first build) — the physical tables and ledger table are
        epoch-scoped, so a rebuild never touches the committed index.
        The index is named after the strategy.
        """
        from repro.consistency import Manifest
        from repro.consistency.build import BuildPlan, partition_batches
        cfg = self._sized(loaders=loaders, batch_size=batch_size)
        batch_size = cfg.batch_size
        if self.corpus is None:
            raise WarehouseError(
                "upload_corpus() must run before plan_build()")
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy)
        name = strategy.name
        manifest = Manifest(self.cloud.resilient.dynamodb)
        previous = None
        if manifest.exists:
            def probe() -> Generator[Any, Any, Any]:
                record = yield from manifest.committed(name)
                return record
            with self.cloud.meter.tagged("index-plan:{}".format(name)):
                previous = self.cloud.env.run_process(
                    probe(), name="plan-{}".format(name))
        epoch = previous.epoch + 1 if previous is not None else 1
        slug = name.lower()
        return BuildPlan(
            name=name, strategy=strategy, epoch=epoch, batch_size=batch_size,
            shards=self.deployment.shards,
            batches=partition_batches(name, epoch, self._all_uris,
                                      batch_size),
            table_names={
                logical: "idx-{}-{}-e{}".format(slug, logical, epoch)
                for logical in strategy.logical_tables},
            ledger_table="ldg-{}-e{}".format(slug, epoch),
            instances=cfg.loaders)

    def run_build(self, plan: Any, interrupt_after_s: Optional[float] = None,
                  purge_stale: bool = False,
                  tag: Optional[str] = None) -> Any:
        """Run (or re-run) a checkpointed plan's missing batches.

        ``interrupt_after_s`` crashes the whole fleet that many
        simulated seconds after it starts — the crash-consistency test
        hook; the run then returns with ``interrupted=True`` and
        whatever the ledger managed to record.  The fault plan's loader
        crashes land here as in :meth:`build_index`.  ``purge_stale``
        drops pre-crash queue deliveries first (a resume must not race
        them).
        """
        from repro.consistency.build import BuildCoordinator, BuildRunResult
        tag = tag or "index-build:{}:e{}".format(
            plan.name, plan.epoch)
        coordinator = BuildCoordinator(self.cloud, plan)
        self._coordinators[plan.name] = coordinator
        store = self._make_store("dynamodb", seed=plan.epoch,
                                 range_key_mode="content",
                                 epoch=plan.epoch)
        fleet = self._loader_fleet(store, plan.strategy, plan.table_names,
                                   plan.batch_size,
                                   ledger=coordinator.ledger,
                                   name="ckpt-loader")

        def driver() -> Generator[Any, Any, Tuple[int, int, Any]]:
            yield from coordinator.prepare(store)
            if purge_stale:
                yield from coordinator.purge_loader_queue()
            missing = yield from coordinator.missing_batches()
            enqueued = yield from coordinator.enqueue(missing)
            self._launch_loaders(fleet, plan.instances)
            bomb = (fleet.crash_later(interrupt_after_s)
                    if interrupt_after_s is not None else None)
            # Always drained: the wait ends early once the bomb leaves
            # no loader running, and the stop then sends no pill.
            yield from fleet.drain(LOADER_QUEUE)
            yield from fleet.stop(LOADER_QUEUE)
            applied = yield from coordinator.applied_count()
            return enqueued, applied, bomb

        started_at = self.cloud.env.now
        with self._span("index-build", strategy=plan.strategy.name,
                        index=plan.name, epoch=plan.epoch,
                        checkpointed=True):
            with self.cloud.meter.tagged(tag):
                enqueued, applied, bomb = self.cloud.env.run_process(
                    driver(), name="ckpt-build-{}".format(plan.name))
        stats = [member.worker.stats for member in fleet.launched]
        phase = PhaseRecord(
            tag=tag, instance_type=LOADER_TYPE,
            instances=plan.instances, started_at=started_at,
            ended_at=self.cloud.env.now)
        self.phases.append(phase)
        return BuildRunResult(
            plan=plan,
            interrupted=bomb is not None and not bomb.is_alive
            and bomb.value > 0,
            enqueued=enqueued, applied_batches=applied,
            skipped_batches=sum(s.skipped_batches for s in stats),
            worker_stats=stats, store=store, phase=phase)

    def commit_build(self, plan: Any) -> Any:
        """Commit a fully-applied plan: inventories + atomic epoch flip."""
        from repro.consistency.build import BuildCoordinator
        tag = "index-commit:{}:e{}".format(plan.name, plan.epoch)
        coordinator = self._coordinators.pop(plan.name, None)
        if coordinator is None or coordinator.plan is not plan:
            coordinator = BuildCoordinator(self.cloud, plan)
        # The flip overwrites the committed record, so the superseded
        # epoch's routing metadata must be captured before it runs.
        previous_tables: set = set()
        if self.index_cache is not None:
            for rec in coordinator.manifest.list_records():
                if rec.name == plan.name and rec.status == "committed":
                    previous_tables.update(rec.tables.values())
        with self._span("index-commit", index=plan.name, epoch=plan.epoch):
            with self.cloud.meter.tagged(tag):
                record = self.cloud.env.run_process(
                    coordinator.commit(), name="commit-{}".format(plan.name))
        # Manifest-flip coherence, targeted: only entries for the tables
        # named in the superseded and newly committed records' routing
        # metadata can go stale — entries of other indexes survive.
        if self.index_cache is not None:
            self.index_cache.invalidate_tables(
                previous_tables | set(record.tables.values()))
        return record

    def resume_build(self, plan: Any) -> Tuple[Any, Any]:
        """Resume an interrupted plan and commit once it is complete.

        Purges stale queue deliveries, re-enqueues only the batches the
        ledger is missing, and — if the run completes the ledger — flips
        the manifest.  Returns ``(run_result, committed_record_or_None)``.
        """
        result = self.run_build(plan, purge_stale=True)
        record = None
        if result.complete:
            record = self.commit_build(plan)
            result.committed = True
        return result, record

    def built_index_from(self, plan: Any, result: Any) -> BuiltIndex:
        """Wrap a completed checkpointed run into a ``BuiltIndex`` handle.

        The report aggregates the *final* run's worker stats (a resumed
        build's earlier attempts are separate phases with their own
        metering), so byte totals are authoritative while timing covers
        the run that finished the job.
        """
        return _built_index(plan.strategy, result.store,
                            dict(plan.table_names), result.phase,
                            result.worker_stats)

    def build_index_checkpointed(self, strategy: Union[str, IndexingStrategy],
                                 loaders: Optional[int] = None,
                                 batch_size: Optional[int] = None,
                                 tag: Optional[str] = None
                                 ) -> Tuple[BuiltIndex, Any]:
        """One-call checkpointed build: plan → run → commit.

        Returns the ``BuiltIndex`` handle plus the committed
        :class:`~repro.consistency.manifest.EpochRecord`.
        """
        plan = self.plan_build(strategy, loaders=loaders,
                               batch_size=batch_size)
        result = self.run_build(plan, tag=tag)
        if not result.complete:
            raise WarehouseError(
                "checkpointed build of {} stopped incomplete: "
                "{}/{} batches applied".format(
                    plan.name, result.applied_batches, len(plan.batches)))
        record = self.commit_build(plan)
        result.committed = True
        return self.built_index_from(plan, result), record

    def scrub_index(self, built: BuiltIndex, name: str, epoch: int,
                    repair: bool = True) -> Any:
        """Scrub (and optionally repair) one committed index epoch."""
        from repro.consistency import Manifest, Scrubber
        from repro.consistency.build import partition_batches
        tag = "scrub:{}:e{}".format(name, epoch)
        # Reconstruct the epoch's batch partition (meter-free manifest
        # peek) so repairs merge multi-document items like the build did.
        batch_groups = None
        for record in Manifest(self.cloud.resilient.dynamodb).list_records():
            if (record.name == name and record.epoch == epoch
                    and record.batch_size > 0):
                batch_groups = [
                    batch.uris for batch in partition_batches(
                        name, epoch, self._all_uris, record.batch_size)]
                break
        scrubber = Scrubber(self.cloud, built.store, built.strategy,
                            built.table_names, name, epoch,
                            DOCUMENT_BUCKET, health=self.health,
                            batch_groups=batch_groups)
        with self._span("scrub", index=name, epoch=epoch, repair=repair):
            with self.cloud.meter.tagged(tag):
                report = self.cloud.env.run_process(
                    scrubber.scrub(repair=repair),
                    name="scrub-{}".format(name))
        return report

    def run_degraded_workload(self, queries: Sequence[Query],
                              indexes: Sequence[BuiltIndex],
                              workers: Optional[int] = None
                              ) -> WorkloadReport:
        """Run a workload over a graceful-degradation chain of indexes.

        The chain tries the highest-ranked healthy candidate per
        pattern, falls through damaged ones, and lands on a full S3
        scan when nothing is usable; every downgrade is metered.
        """
        from repro.consistency import DegradedIndexChain
        cfg = self._sized(workers=workers)
        chain = DegradedIndexChain(self.cloud, list(indexes),
                                   self._all_uris, health=self.health)
        tag = "workload:degraded:{}x{}".format(cfg.workers, cfg.worker_type)
        return self.run_workload(queries, chain, workers=cfg.workers,
                                 tag=tag)

    # -- querying ----------------------------------------------------------------------

    def run_workload(self, queries: Sequence[Query],
                     index: Optional[BuiltIndex],
                     workers: Optional[int] = None,
                     worker_type: Optional[str] = None,
                     repeats: int = 1, pipeline: bool = False,
                     tag: Optional[str] = None) -> WorkloadReport:
        """Run ``queries`` (``repeats`` times) over ``workers`` VMs of
        ``worker_type`` (both default to the deployment's).

        With ``index=None`` the no-index baseline runs: every document
        is fetched and evaluated for every query.

        ``pipeline=False`` (default) submits queries one at a time,
        waiting for each response before the next submission — the
        per-query response-time protocol of Figure 9.  ``pipeline=True``
        submits the whole workload up front so the instance fleet
        processes queries concurrently — the throughput protocol of
        Figure 10 ("we sent to the front-end all our workload queries,
        successively, 16 times").
        """
        cfg = self._sized(workers=workers, worker_type=worker_type)
        instances = cfg.workers
        instance_type = cfg.worker_type
        if self.corpus is None:
            raise WarehouseError("upload_corpus() must run before queries")
        strategy_name = index.strategy.name if index else "none"
        tag = tag or "workload:{}:{}x{}".format(
            strategy_name, instances, instance_type)

        driver = QueryDriver(self, instance_type, index)
        plan = [query for _ in range(repeats) for query in queries]

        def source() -> Generator[Any, Any, None]:
            for query in plan:
                yield from driver.submit(query, query.name)
                if not pipeline:
                    yield from driver.collect_all()
            yield from driver.collect_all()

        started_at = self.cloud.env.now
        driver.drive("workload", tag, instances, source,
                     strategy=strategy_name, instances=instances,
                     instance_type=instance_type)
        self.phases.append(PhaseRecord(
            tag=tag, instance_type=instance_type, instances=instances,
            started_at=started_at, ended_at=self.cloud.env.now))
        inclusive = driver.price()
        submitted, fetched = driver.arrivals, driver.fetched

        executions: List[QueryExecution] = []
        for query_id in sorted(submitted):
            work = driver.stats[query_id]
            downgrade = ""
            if work.index_mode not in ("", "index", "none",
                                       strategy_name):
                downgrade = work.index_mode
            executions.append(QueryExecution(
                name=driver.names[query_id],
                strategy_name=strategy_name,
                instance_type=instance_type,
                instances=instances,
                tag=tag,
                response_s=fetched[query_id] - submitted[query_id],
                processing_s=work.processing_s,
                lookup_get_s=work.lookup_get_s,
                lookup_plan_s=work.lookup_plan_s,
                fetch_eval_s=work.fetch_eval_s,
                docs_from_index=work.docs_from_index,
                per_pattern_docs=list(work.per_pattern_docs),
                documents_fetched=work.documents_fetched,
                docs_with_results=work.docs_with_results,
                result_rows=work.result_rows,
                result_bytes=work.result_bytes,
                index_gets=work.index_gets,
                rows_processed=work.rows_processed,
                query_id=query_id,
                index_mode=work.index_mode,
                span_id=work.span_id,
                store_cache_hits=work.store_cache_hits,
                downgrade=downgrade,
                cost=inclusive.get(work.span_id),
            ))
        makespan = (max(fetched.values()) - min(submitted.values())
                    if fetched else 0.0)
        return WorkloadReport(executions=executions,
                              strategy_name=strategy_name,
                              instance_type=instance_type,
                              instances=instances, tag=tag,
                              makespan_s=makespan,
                              trace=self.telemetry.tracer,
                              cost=inclusive.get(driver.span.span_id),
                              span_id=driver.span.span_id)

    def run_query(self, query: Query, index: Optional[BuiltIndex],
                  worker_type: Optional[str] = None,
                  tag: Optional[str] = None) -> QueryExecution:
        """Run a single query on a single instance of ``worker_type``
        (default: the deployment's)."""
        report = self.run_workload([query], index, workers=1,
                                   worker_type=worker_type, tag=tag)
        return report.executions[0]

    # -- serving (repro.serving) -------------------------------------------------

    def serve(self, traffic: Any, index: Optional[BuiltIndex],
              background: Optional[Sequence[Any]] = None,
              tag: Optional[str] = None) -> Any:
        """Serve an *open* workload: traffic, admission, elastic fleet.

        ``traffic`` is a :class:`~repro.serving.traffic.TrafficProfile`
        (or a mapping of its fields): a seeded arrival process over the
        paper's query mix that keeps offering queries regardless of
        whether the fleet keeps up.  The deployment provisions the rest:
        the fleet starts at its ``workers`` (or ``autoscale.min_workers``
        when an autoscale policy is set, in which case it grows and
        shrinks against queue depth and age), and its ``admission`` sheds
        or degrades arrivals over its queue bounds — a degraded arrival
        runs as the full S3 scan.  ``background`` holds generator factories
        run alongside traffic (the live-ingestion hooks:
        :func:`~repro.mutations.live.mutation_feed`,
        :func:`~repro.mutations.live.compaction_ticker`); the run waits
        for them, so they must terminate.  Returns a
        :class:`~repro.serving.report.ServingReport` whose request
        dollars tie out exactly against the cost estimator.
        """
        from repro.serving.runtime import ServingRuntime
        from repro.serving.traffic import TrafficProfile
        if self.corpus is None:
            raise WarehouseError("upload_corpus() must run before serve()")
        if isinstance(traffic, dict):
            traffic = TrafficProfile(**traffic)
        return ServingRuntime(self, traffic, index, background=background,
                              tag=tag).run()

    # -- live mutation (repro.mutations) -----------------------------------------

    def live_index(self, name: str) -> Any:
        """Attach a live-mutation handle to a committed index.

        Reads the committed epoch record and the current delta chain,
        returning a :class:`~repro.mutations.live.LiveIndex` — a
        drop-in ``BuiltIndex`` replacement whose lookups merge the base
        epoch with every published delta (read-your-writes) and whose
        documents are mutated through :meth:`add_documents` /
        :meth:`delete_documents` / :meth:`update_document`.
        """
        from repro.consistency.manifest import Manifest
        from repro.mutations.live import LiveIndex
        manifest = Manifest(self.cloud.resilient.dynamodb)
        if not manifest.exists:
            raise WarehouseError(
                "no index was ever committed on this deployment")

        def probe() -> Generator[Any, Any, Tuple[Any, Any]]:
            record = yield from manifest.committed(name)
            head = yield from manifest.live_head(name)
            return record, head

        with self.cloud.meter.tagged("live-attach:{}".format(name)):
            record, head = self.cloud.env.run_process(
                probe(), name="live-attach-{}".format(name))
        if record is None:
            raise WarehouseError(
                "index {} has no committed epoch to attach to".format(name))
        return LiveIndex(self, record, head, strategy_by_name(record.strategy))

    def add_documents(self, live: Any, increment: Corpus,
                      loaders: Optional[int] = None,
                      tag: Optional[str] = None) -> Any:
        """Publish new documents into a live index as one delta epoch.

        The arriving documents are stored in S3, indexed by a loader
        fleet (``loaders``, default the deployment's) into fresh delta
        tables, and made visible with one
        conditional live-head flip — queries issued after this call
        returns see them (read-your-writes).  Returns the priced
        :class:`~repro.mutations.live.DeltaReport`.
        """
        cfg = self._sized(loaders=loaders)
        tag = tag or "ingest:{}:m{:04d}:add".format(
            live.name, next(self._mutation_ids))
        return self._run_mutation(
            live.publish_add(increment, cfg.loaders), tag,
            instances=cfg.loaders)

    def delete_documents(self, live: Any, uris: Sequence[str],
                         tag: Optional[str] = None) -> Any:
        """Delete documents from a live index via a tombstone delta.

        Publishes a tombstone-only delta (no loader fleet, no tables)
        masking ``uris`` in every layer beneath it, and removes the
        documents from S3.  Returns the priced
        :class:`~repro.mutations.live.DeltaReport`.
        """
        tag = tag or "ingest:{}:m{:04d}:delete".format(
            live.name, next(self._mutation_ids))
        return self._run_mutation(live.publish_delete(uris), tag)

    def update_document(self, live: Any, uri: str, data: bytes,
                        tag: Optional[str] = None) -> Any:
        """Replace one document in a live index atomically.

        One delta carries both the tombstone for the old extraction and
        the new extraction, so readers see either the old or the new
        document — never a blend.  Returns the priced
        :class:`~repro.mutations.live.DeltaReport`.
        """
        tag = tag or "ingest:{}:m{:04d}:update".format(
            live.name, next(self._mutation_ids))
        return self._run_mutation(
            live.publish_update(uri, data), tag,
            instances=self.deployment.loaders)

    def compact_index(self, live: Any, max_units: Optional[int] = None,
                      retire: bool = False,
                      tag: Optional[str] = None) -> Any:
        """Fold a live index's delta chain into a fresh base epoch.

        Crash-safe and idempotent: an interrupted pass (``max_units``)
        commits nothing, and a later call replays only the units the
        compaction ledger is missing, rewriting byte-identical items.
        Returns the priced
        :class:`~repro.mutations.compactor.CompactionReport`.
        """
        from repro.mutations.compactor import Compactor
        tag = tag or "compact:{}:e{}:m{:04d}".format(
            live.name, live.record.epoch + 1, next(self._mutation_ids))
        compactor = Compactor(self, live)
        return self._run_mutation(
            compactor.run(max_units=max_units, retire=retire), tag)

    def _run_mutation(self, core: Generator[Any, Any, Any], tag: str,
                      instances: int = 0) -> Any:
        """Drive one mutation generator under its phase tag and price it."""
        started_at = self.cloud.env.now
        mark = self.cloud.meter.mark()
        with self.cloud.meter.tagged(tag):
            report = self.cloud.env.run_process(
                core, name="mutation-{}".format(tag))
        self.phases.append(PhaseRecord(
            tag=tag, instance_type=LOADER_TYPE, instances=instances,
            started_at=started_at, ended_at=self.cloud.env.now))
        report.tag = tag
        self._price_mutation(report, tag, mark)
        return report

    def _price_mutation(self, report: Any, tag: str, mark: int) -> None:
        """Fill a mutation report's span/estimator cost breakdowns.

        ``span_cost`` rolls up every meter record inside the mutation's
        span subtree (workers spawned under it inherit it), all of them
        after ``mark``; the estimator side prices the records after
        ``mark`` tagged exactly ``tag`` (a tenant's mutations share one
        tag, and one tag may prefix another's).  The two must agree to
        the last float bit — the report's ``cost_tied_out``.
        """
        from repro.costs.estimator import tag_cost
        records = self.cloud.meter.since(mark)
        report.span_cost = span_inclusive_costs(
            self.telemetry.tracer, records, self.cloud.price_book,
            {report.span_id}).get(report.span_id)
        report.estimator_cost = tag_cost(records, self.cloud.price_book,
                                         tag)
