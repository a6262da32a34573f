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
from typing import (Any, Dict, Generator, List, Optional, Sequence, Tuple,
                    Union)

from repro.cloud.provider import CloudProvider
from repro.cloud.sqs import RedrivePolicy
from repro.errors import InstanceCrashed, WarehouseError
from repro.indexing.base import IndexingStrategy
from repro.indexing.mapper import (DynamoIndexStore, IndexStore,
                                   SimpleDBIndexStore)
from repro.indexing.registry import strategy as strategy_by_name
from repro.query.pattern import Query
from repro.store import AnswerMemo, IndexCache, StoreRouter, expand_physical
from repro.telemetry.costing import span_inclusive_costs
from repro.warehouse.deployment import DeploymentConfig
from repro.warehouse.frontend import Frontend, check_document_uris
from repro.warehouse.loader import IndexerWorker, LoaderWorkerStats
from repro.warehouse.messages import (LOADER_QUEUE, QUERY_QUEUE,
                                      RESPONSE_QUEUE, StopWorker)
from repro.warehouse.query_processor import QueryWorker, QueryWorkStats
from repro.xmark.corpus import Corpus

DOCUMENT_BUCKET = "documents"
RESULTS_BUCKET = "results"

#: Suffix of the dead-letter queues created alongside the work queues
#: when the cloud carries a fault plan.
DLQ_SUFFIX = "-dlq"

#: How often a chaos build polls the loader queue for drain before
#: sending the poison pills (simulated seconds).
DRAIN_POLL_INTERVAL_S = 0.25


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
    physical = [table_names[t] for t in strategy.logical_tables]
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
        raw_bytes=store.raw_bytes(physical),
        overhead_bytes=store.overhead_bytes(physical),
        stored_bytes=store.stored_bytes(physical),
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

    def by_name(self) -> Dict[str, List[QueryExecution]]:
        """Executions grouped by query name."""
        grouped: Dict[str, List[QueryExecution]] = {}
        for execution in self.executions:
            grouped.setdefault(execution.name, []).append(execution)
        return grouped


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
        #: policies.  Per-call ``config=`` arguments override it.
        self.deployment = resolved
        self.visibility_timeout = resolved.visibility_timeout
        #: Storage-access layer configuration (sharding + caching); the
        #: default is the seed's single-table, uncached behaviour.
        self.store_config = resolved.store_config
        visibility_timeout = resolved.visibility_timeout
        #: One epoch-aware read cache shared by every index store of
        #: the deployment, so repeated workload runs hit across builds;
        #: ``None`` unless the configuration grants it a byte budget.
        self.index_cache: Optional[IndexCache] = (
            IndexCache(self.store_config.cache_bytes)
            if self.store_config.cache_enabled else None)
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
                    max_receive_count=(
                        self.cloud.faults.plan.max_receive_count))
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
    def deploy(cls, config: Optional[Any] = None,
               cloud: Optional[CloudProvider] = None) -> "Warehouse":
        """Deploy a warehouse from one :class:`DeploymentConfig`.

        The one-stop constructor: when no ``cloud`` is supplied, one is
        provisioned from the config itself (its ``faults`` plan becomes
        the cloud's fault plan).  ``config`` may also be a mapping of
        overrides over the default config.
        """
        resolved = DeploymentConfig.resolve(DeploymentConfig(), config)
        if cloud is None:
            cloud = CloudProvider(fault_plan=resolved.faults)
        return cls(cloud=cloud, deployment=resolved)

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
                    config: Optional[Any] = None, include_words: bool = True,
                    tag: Optional[str] = None) -> BuiltIndex:
        """Build one strategy's index over the uploaded corpus.

        Launches ``config.loaders`` loader VMs of ``config.loader_type``,
        enqueues one load request per document, and runs the pipeline to
        completion.  ``config.backend`` selects the index store
        ("dynamodb" or "simpledb" — the latter reproduces the [8]
        baseline of Tables 7-8).  ``config`` defaults to the
        deployment's config; a mapping overrides individual fields.
        """
        cfg = DeploymentConfig.resolve(self.deployment, config)
        instances = cfg.loaders
        instance_type = cfg.loader_type
        batch_size = cfg.batch_size
        backend = cfg.backend
        if self.corpus is None:
            raise WarehouseError("upload_corpus() must run before build_index()")
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy, include_words=include_words)
        build_id = next(self._build_ids)
        tag = tag or "index-build:{}:{}".format(strategy.name, build_id)

        store = self._make_store(backend, seed=build_id)
        table_names = {
            logical: "idx-{}-{}-{}".format(
                strategy.name.lower(), logical, build_id)
            for logical in strategy.logical_tables}
        for physical in table_names.values():
            store.create_table(physical)

        fleet = self.cloud.ec2.launch_fleet(instance_type, instances)
        workers = [IndexerWorker(self.cloud, instance, store, strategy,
                                 table_names, DOCUMENT_BUCKET,
                                 batch_size=batch_size)
                   for instance in fleet]
        crashes = (self.cloud.faults.plan.crashes_for("loader")
                   if self.cloud.faults is not None else [])

        def driver() -> Generator[Any, Any, List[LoaderWorkerStats]]:
            procs = [self.cloud.env.process(worker.run(),
                                            name="loader-{}".format(i))
                     for i, worker in enumerate(workers)]

            def chaos_monkey(spec) -> Generator[Any, Any, None]:
                # Kill one worker instance mid-build: the §3 recovery
                # path (lease lapse → SQS redelivery) must finish the
                # job on a freshly launched replacement.
                yield self.cloud.env.timeout(spec.after_s)
                victim = spec.worker
                if victim >= len(fleet) or not procs[victim].is_alive:
                    return
                if not fleet[victim].running:
                    return
                self.cloud.ec2.crash(fleet[victim])
                procs[victim].interrupt(InstanceCrashed(
                    fleet[victim].instance_id))
                replacement = self.cloud.ec2.launch(instance_type)
                worker = IndexerWorker(self.cloud, replacement, store,
                                       strategy, table_names,
                                       DOCUMENT_BUCKET,
                                       batch_size=batch_size)
                workers.append(worker)
                procs.append(self.cloud.env.process(
                    worker.run(),
                    name="loader-replacement-{}".format(victim)))

            for index, spec in enumerate(crashes):
                self.cloud.env.process(chaos_monkey(spec),
                                       name="chaos-monkey-{}".format(index))
            # Load requests are posted concurrently (documents "arrive"
            # independently at the scalable front end) so the loader
            # fleet — not the request rate — bounds indexing time.
            sends = [self.cloud.env.process(self.frontend.request_load(uri),
                                            name="send-{}".format(uri))
                     for uri in self._all_uris]
            for send in sends:
                yield send
            if self.cloud.faults is not None:
                # A crashed worker's messages sit in flight until its
                # lease lapses; declaring the build done (pills) before
                # the queue fully drains would lose them.  Fault-free
                # builds skip this — workers always drain the queue
                # before their pill, so timing stays seed-identical.
                while (self.cloud.sqs.approximate_depth(LOADER_QUEUE)
                       + self.cloud.sqs.in_flight_count(LOADER_QUEUE)) > 0:
                    yield self.cloud.env.timeout(DRAIN_POLL_INTERVAL_S)
            pills = sum(1 for proc in procs if proc.is_alive)
            for _ in range(pills):
                yield from self.cloud.resilient.sqs.send(
                    LOADER_QUEUE, StopWorker())
            results: List[LoaderWorkerStats] = []
            index = 0
            # procs can grow while we wait (replacements for crashed
            # workers), hence the index loop.
            while index < len(procs):
                try:
                    results.append((yield procs[index]))
                except InstanceCrashed:
                    pass  # its replacement finishes the work
                index += 1
            return results

        started_at = self.cloud.env.now
        with self._span("index-build", strategy=strategy.name,
                        backend=backend, instances=instances):
            with self.cloud.meter.tagged(tag):
                self.cloud.env.run_process(
                    driver(), name="build-{}".format(strategy.name))
        self.cloud.ec2.stop_all()
        phase = PhaseRecord(tag=tag, instance_type=instance_type,
                            instances=instances, started_at=started_at,
                            ended_at=self.cloud.env.now)
        self.phases.append(phase)
        # Aggregate over every worker that ran, including crashed ones
        # and their replacements: redone work is real work (and real
        # cost), and a crashed worker's partial stats describe it.
        return _built_index(strategy, store, table_names, phase,
                            [w.stats for w in workers])

    def drop_index(self, built: BuiltIndex) -> int:
        """Delete an index's tables, ending its storage rent.

        Returns the number of bytes freed (``s(D, I)``) — what the
        monthly ``IDX$m,GB`` charge stops accruing on.
        """
        freed = built.store.stored_bytes(built.physical_tables)
        for physical in built.physical_tables:
            for shard_table in expand_physical(built.store, physical):
                if built.store.backend_name == "dynamodb":
                    self.cloud.dynamodb.delete_table(shard_table)
                else:
                    self.cloud.simpledb.delete_domain(shard_table)
        return freed

    def _make_store(self, backend: str, seed: int,
                    range_key_mode: str = "uuid",
                    epoch: int = 0) -> IndexStore:
        # Stores talk to the resilient facade: the raw service on a
        # fault-free cloud, the retry/breaker proxy under chaos.  Every
        # store is handed out behind a StoreRouter; with the default
        # configuration the router is a pure passthrough.
        if backend == "dynamodb":
            base: IndexStore = DynamoIndexStore(
                self.cloud.resilient.dynamodb, seed=seed,
                range_key_mode=range_key_mode)
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
        return StoreRouter(base, config=self.store_config,
                           cache=self.index_cache,
                           telemetry=self.telemetry, epoch=epoch,
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
                   name: Optional[str] = None,
                   config: Optional[Any] = None,
                   include_words: bool = True) -> Any:
        """Plan a checkpointed build of the next epoch of ``name``.

        The corpus is partitioned into fixed-composition batches *now*,
        and the target epoch is one past the currently committed epoch
        (1 for a first build) — the physical tables and ledger table are
        epoch-scoped, so a rebuild never touches the committed index.
        """
        from repro.consistency import Manifest
        from repro.consistency.build import BuildPlan, partition_batches
        cfg = DeploymentConfig.resolve(self.deployment, config)
        instances = cfg.loaders
        instance_type = cfg.loader_type
        batch_size = cfg.batch_size
        if self.corpus is None:
            raise WarehouseError(
                "upload_corpus() must run before plan_build()")
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy, include_words=include_words)
        name = name or strategy.name
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
            name=name, strategy=strategy, epoch=epoch,
            batch_size=batch_size,
            shards=self.store_config.shards,
            batches=partition_batches(name, epoch, self._all_uris,
                                      batch_size),
            table_names={
                logical: "idx-{}-{}-e{}".format(slug, logical, epoch)
                for logical in strategy.logical_tables},
            ledger_table="ldg-{}-e{}".format(slug, epoch),
            instances=instances, instance_type=instance_type)

    def run_build(self, plan: Any, interrupt_after_s: Optional[float] = None,
                  purge_stale: bool = False,
                  tag: Optional[str] = None) -> Any:
        """Run (or re-run) a checkpointed plan's missing batches.

        ``interrupt_after_s`` crashes the whole fleet that many
        simulated seconds after it starts — the crash-consistency test
        hook; the run then returns with ``interrupted=True`` and
        whatever the ledger managed to record.  ``purge_stale`` drops
        pre-crash queue deliveries first (a resume must not race them).
        """
        from repro.consistency.build import BuildCoordinator, BuildRunResult
        tag = tag or plan.tag or "index-build:{}:e{}".format(
            plan.name, plan.epoch)
        coordinator = BuildCoordinator(self.cloud, plan)
        self._coordinators[plan.name] = coordinator
        store = self._make_store("dynamodb", seed=plan.epoch,
                                 range_key_mode="content",
                                 epoch=plan.epoch)
        fleet = self.cloud.ec2.launch_fleet(plan.instance_type,
                                            plan.instances)
        workers = [IndexerWorker(self.cloud, instance, store, plan.strategy,
                                 plan.table_names, DOCUMENT_BUCKET,
                                 batch_size=plan.batch_size,
                                 ledger=coordinator.ledger)
                   for instance in fleet]
        interrupted = [False]
        counters = {"enqueued": 0, "applied": 0}

        def driver() -> Generator[Any, Any, List[LoaderWorkerStats]]:
            env = self.cloud.env
            yield from coordinator.prepare(store)
            if purge_stale:
                yield from coordinator.purge_loader_queue()
            missing = yield from coordinator.missing_batches()
            counters["enqueued"] = yield from coordinator.enqueue(missing)
            procs = [env.process(worker.run(),
                                 name="ckpt-loader-{}".format(i))
                     for i, worker in enumerate(workers)]

            def bomb() -> Generator[Any, Any, None]:
                yield env.timeout(interrupt_after_s)
                alive = [i for i, proc in enumerate(procs) if proc.is_alive]
                if not alive:
                    return  # the build already finished
                interrupted[0] = True
                for i in alive:
                    if fleet[i].running:
                        self.cloud.ec2.crash(fleet[i])
                    procs[i].interrupt(
                        InstanceCrashed(fleet[i].instance_id))

            if interrupt_after_s is not None:
                env.process(bomb(), name="build-interrupt")
            while (not interrupted[0]
                   and (self.cloud.sqs.approximate_depth(LOADER_QUEUE)
                        + self.cloud.sqs.in_flight_count(LOADER_QUEUE)) > 0):
                yield env.timeout(DRAIN_POLL_INTERVAL_S)
            if not interrupted[0]:
                pills = sum(1 for proc in procs if proc.is_alive)
                for _ in range(pills):
                    yield from self.cloud.resilient.sqs.send(
                        LOADER_QUEUE, StopWorker())
            results: List[LoaderWorkerStats] = []
            for proc in procs:
                try:
                    results.append((yield proc))
                except InstanceCrashed:
                    pass  # the ledger remembers what it finished
            counters["applied"] = yield from coordinator.applied_count()
            return results

        started_at = self.cloud.env.now
        with self._span("index-build", strategy=plan.strategy.name,
                        index=plan.name, epoch=plan.epoch,
                        checkpointed=True):
            with self.cloud.meter.tagged(tag):
                self.cloud.env.run_process(
                    driver(), name="ckpt-build-{}".format(plan.name))
        stats = [worker.stats for worker in workers]
        self.cloud.ec2.stop_all()
        phase = PhaseRecord(
            tag=tag, instance_type=plan.instance_type,
            instances=plan.instances, started_at=started_at,
            ended_at=self.cloud.env.now)
        self.phases.append(phase)
        return BuildRunResult(
            plan=plan, interrupted=interrupted[0],
            enqueued=counters["enqueued"],
            applied_batches=counters["applied"],
            skipped_batches=sum(s.skipped_batches for s in stats),
            worker_stats=stats, store=store, phase=phase)

    def commit_build(self, plan: Any, tag: Optional[str] = None) -> Any:
        """Commit a fully-applied plan: inventories + atomic epoch flip."""
        from repro.consistency.build import BuildCoordinator
        tag = tag or "index-commit:{}:e{}".format(plan.name, plan.epoch)
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

    def resume_build(self, plan: Any,
                     interrupt_after_s: Optional[float] = None,
                     tag: Optional[str] = None) -> Tuple[Any, Any]:
        """Resume an interrupted plan and commit once it is complete.

        Purges stale queue deliveries, re-enqueues only the batches the
        ledger is missing, and — if the run completes the ledger — flips
        the manifest.  Returns ``(run_result, committed_record_or_None)``.
        """
        result = self.run_build(plan, interrupt_after_s=interrupt_after_s,
                                purge_stale=True, tag=tag)
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
                                 name: Optional[str] = None,
                                 config: Optional[Any] = None,
                                 include_words: bool = True,
                                 tag: Optional[str] = None
                                 ) -> Tuple[BuiltIndex, Any]:
        """One-call checkpointed build: plan → run → commit.

        Returns the ``BuiltIndex`` handle plus the committed
        :class:`~repro.consistency.manifest.EpochRecord`.
        """
        cfg = DeploymentConfig.resolve(self.deployment, config)
        plan = self.plan_build(strategy, name=name, config=cfg,
                               include_words=include_words)
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
                    repair: bool = True, tag: Optional[str] = None) -> Any:
        """Scrub (and optionally repair) one committed index epoch."""
        from repro.consistency import Manifest, Scrubber
        from repro.consistency.build import partition_batches
        tag = tag or "scrub:{}:e{}".format(name, epoch)
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
                              config: Optional[Any] = None,
                              repeats: int = 1, pipeline: bool = False,
                              tag: Optional[str] = None) -> WorkloadReport:
        """Run a workload over a graceful-degradation chain of indexes.

        The chain tries the highest-ranked healthy candidate per
        pattern, falls through damaged ones, and lands on a full S3
        scan when nothing is usable; every downgrade is metered.
        """
        from repro.consistency import DegradedIndexChain
        cfg = DeploymentConfig.resolve(self.deployment, config)
        chain = DegradedIndexChain(self.cloud, list(indexes),
                                   self._all_uris, health=self.health)
        tag = tag or "workload:degraded:{}x{}".format(
            cfg.workers, cfg.worker_type)
        return self.run_workload(queries, chain, config=cfg,
                                 repeats=repeats, pipeline=pipeline,
                                 tag=tag)

    # -- querying ----------------------------------------------------------------------

    def run_workload(self, queries: Sequence[Query],
                     index: Optional[BuiltIndex],
                     config: Optional[Any] = None,
                     repeats: int = 1, pipeline: bool = False,
                     tag: Optional[str] = None) -> WorkloadReport:
        """Run ``queries`` (``repeats`` times) over ``config.workers`` VMs.

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
        cfg = DeploymentConfig.resolve(self.deployment, config)
        instances = cfg.workers
        instance_type = cfg.worker_type
        if self.corpus is None:
            raise WarehouseError("upload_corpus() must run before queries")
        strategy_name = index.strategy.name if index else "none"
        tag = tag or "workload:{}:{}x{}".format(
            strategy_name, instances, instance_type)

        fleet = self.cloud.ec2.launch_fleet(instance_type, instances)
        stats_sink: Dict[int, QueryWorkStats] = {}
        workers = [QueryWorker(self.cloud, instance,
                               index.make_lookup(self.telemetry.tracer)
                               if index else None,
                               DOCUMENT_BUCKET, RESULTS_BUCKET,
                               self._all_uris, stats_sink,
                               parsed_documents=self._parse_cache,
                               parsed_queries=self._parsed_queries)
                   for instance in fleet]

        submitted: Dict[int, float] = {}
        fetched: Dict[int, float] = {}
        names: Dict[int, str] = {}

        def submit_one(query: Query) -> Generator[Any, Any, None]:
            from repro.tenancy.envelope import QueryRequest as Envelope
            query_id = yield from self.frontend.submit(
                Envelope(query=query))
            submitted[query_id] = self.cloud.env.now
            names[query_id] = query.name

        def collect() -> Generator[Any, Any, None]:
            # Dedup by query id: under chaos a lapsed lease makes two
            # workers answer the same query, so the response queue can
            # carry duplicates.  The first response fixes the fetch
            # time; repeats are consumed and dropped.  Fault-free this
            # performs exactly one await per call, as before.
            result = yield from self.frontend.await_response()
            fetched.setdefault(result.query_id, result.fetched_at)

        def driver() -> Generator[Any, Any, None]:
            procs = [self.cloud.env.process(worker.run(),
                                            name="qworker-{}".format(i))
                     for i, worker in enumerate(workers)]
            plan = [query for _ in range(repeats) for query in queries]
            if pipeline:
                for query in plan:
                    yield from submit_one(query)
                while not all(qid in fetched for qid in submitted):
                    yield from collect()
            else:
                for query in plan:
                    yield from submit_one(query)
                    pending = [q for q in submitted if q not in fetched]
                    while any(qid not in fetched for qid in pending):
                        yield from collect()
            for _ in workers:
                yield from self.cloud.resilient.sqs.send(
                    QUERY_QUEUE, StopWorker())
            for proc in procs:
                yield proc

        started_at = self.cloud.env.now
        mark = self.cloud.meter.mark()
        with self._span("workload", strategy=strategy_name,
                        instances=instances,
                        instance_type=instance_type) as workload_span:
            with self.cloud.meter.tagged(tag):
                self.cloud.env.run_process(driver(), name="workload")
        self.cloud.ec2.stop_all()
        self.phases.append(PhaseRecord(
            tag=tag, instance_type=instance_type, instances=instances,
            started_at=started_at, ended_at=self.cloud.env.now))

        # Price the workload's records once, into the slots the report
        # reads: the workload span's and each query span's.
        trace = self.telemetry.tracer
        workload_span_id = workload_span.span_id
        inclusive = span_inclusive_costs(
            trace, self.cloud.meter.since(mark), self.cloud.price_book,
            {workload_span_id}
            | {work.span_id for work in stats_sink.values()})

        executions: List[QueryExecution] = []
        for query_id in sorted(submitted):
            work = stats_sink[query_id]
            downgrade = ""
            if work.index_mode not in ("", "index", "none",
                                       strategy_name):
                downgrade = work.index_mode
            executions.append(QueryExecution(
                name=names[query_id],
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
                              trace=trace,
                              cost=inclusive.get(workload_span_id),
                              span_id=workload_span_id)

    def run_query(self, query: Query, index: Optional[BuiltIndex],
                  config: Optional[Any] = None,
                  tag: Optional[str] = None) -> QueryExecution:
        """Run a single query on a single instance."""
        cfg = DeploymentConfig.resolve(self.deployment, config)
        report = self.run_workload([query], index,
                                   config=cfg.override(workers=1), tag=tag)
        return report.executions[0]

    # -- serving (repro.serving) -------------------------------------------------

    def serve(self, traffic: Any, index: Optional[BuiltIndex],
              config: Optional[Any] = None,
              degraded_indexes: Optional[Sequence[BuiltIndex]] = None,
              queries: Optional[Dict[str, Query]] = None,
              background: Optional[Sequence[Any]] = None,
              tag: Optional[str] = None) -> Any:
        """Serve an *open* workload: traffic, admission, elastic fleet.

        ``traffic`` is a :class:`~repro.serving.traffic.TrafficProfile`
        (or a mapping of its fields): a seeded arrival process over the
        paper's query mix that keeps offering queries regardless of
        whether the fleet keeps up.  The fleet starts at
        ``config.workers`` (or ``config.autoscale.min_workers`` when an
        autoscale policy is set, in which case it grows and shrinks
        against queue depth and age), and ``config.admission`` sheds or
        degrades arrivals over its queue bounds — degraded arrivals run
        a :class:`~repro.consistency.DegradedIndexChain` over
        ``degraded_indexes``.  ``background`` holds generator factories
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
        cfg = DeploymentConfig.resolve(self.deployment, config)
        if isinstance(traffic, dict):
            traffic = TrafficProfile(**traffic)
        runtime = ServingRuntime(self, traffic, index, cfg,
                                 degraded_indexes=degraded_indexes,
                                 queries=queries, background=background,
                                 tag=tag)
        return runtime.run()

    # -- live mutation (repro.mutations) -----------------------------------------

    def live_index(self, name: str, include_words: bool = True) -> Any:
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
        strategy = strategy_by_name(record.strategy,
                                    include_words=include_words)
        return LiveIndex(self, record, head, strategy)

    def add_documents(self, live: Any, increment: Corpus,
                      config: Optional[Any] = None,
                      tag: Optional[str] = None) -> Any:
        """Publish new documents into a live index as one delta epoch.

        The arriving documents are stored in S3, indexed by a loader
        fleet into fresh delta tables, and made visible with one
        conditional live-head flip — queries issued after this call
        returns see them (read-your-writes).  Returns the priced
        :class:`~repro.mutations.live.DeltaReport`.
        """
        cfg = DeploymentConfig.resolve(self.deployment, config)
        tag = tag or "ingest:{}:m{:04d}:add".format(
            live.name, next(self._mutation_ids))
        return self._run_mutation(
            live.publish_add(increment, cfg), tag,
            instances=cfg.loaders, instance_type=cfg.loader_type)

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
                        config: Optional[Any] = None,
                        tag: Optional[str] = None) -> Any:
        """Replace one document in a live index atomically.

        One delta carries both the tombstone for the old extraction and
        the new extraction, so readers see either the old or the new
        document — never a blend.  Returns the priced
        :class:`~repro.mutations.live.DeltaReport`.
        """
        cfg = DeploymentConfig.resolve(self.deployment, config)
        tag = tag or "ingest:{}:m{:04d}:update".format(
            live.name, next(self._mutation_ids))
        return self._run_mutation(
            live.publish_update(uri, data, cfg), tag,
            instances=cfg.loaders, instance_type=cfg.loader_type)

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
                      instances: int = 0,
                      instance_type: str = "l") -> Any:
        """Drive one mutation generator under its phase tag and price it."""
        started_at = self.cloud.env.now
        mark = self.cloud.meter.mark()
        with self.cloud.meter.tagged(tag):
            report = self.cloud.env.run_process(
                core, name="mutation-{}".format(tag))
        self.phases.append(PhaseRecord(
            tag=tag, instance_type=instance_type, instances=instances,
            started_at=started_at, ended_at=self.cloud.env.now))
        report.tag = tag
        self._price_mutation(report, tag, mark)
        return report

    def _price_mutation(self, report: Any, tag: str, mark: int) -> None:
        """Fill a mutation report's span/estimator cost breakdowns.

        ``span_cost`` rolls up every meter record inside the mutation's
        span subtree (workers spawned under it inherit it), all of them
        after ``mark``; the estimator side prices the phase tag.  The two
        must agree to the last float bit — the report's ``cost_tied_out``.
        """
        from repro.costs.estimator import phase_cost
        report.span_cost = span_inclusive_costs(
            self.telemetry.tracer, self.cloud.meter.since(mark),
            self.cloud.price_book, {report.span_id}).get(report.span_id)
        report.estimator_cost = phase_cost(self.cloud.meter,
                                           self.cloud.price_book, tag)
