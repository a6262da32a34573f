"""The query processor module: workers on EC2 instances (Figure 1, 9-15).

For each query message a worker:

1. consults the index (DynamoDB gets — "Lookup - DynamoDB Get" in
   Figures 9b/9c) through the strategy's look-up planner;
2. runs the look-up physical plan (CPU on the instance — "Lookup - Plan
   execution");
3. fetches the candidate documents from S3 and evaluates the query on
   them, one core task per document ("S3 documents transfer and results
   extraction") — this is the intra-machine parallelism that lets an
   ``xl`` instance halve the time of an ``l`` at equal cost;
4. applies value joins across tree-pattern results (§5.5);
5. writes the results to the file store and announces them on the
   response queue.

Without an index (the paper's "No Index" baseline) step 1-2 are skipped
and *every* document is fetched and evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Set

from repro.cloud.ec2 import Instance
from repro.cloud.provider import CloudProvider
from repro.config import MB
from repro.errors import NoSuchKey, ReceiptHandleInvalid, RegionUnavailable
from repro.engine.evaluator import (EvalRow, evaluate_pattern,
                                    result_size_bytes)
from repro.engine.value_join import join_query_rows
from repro.indexing.lookup_plans import BaseLookup, QueryLookupOutcome
from repro.query.parser import parse_query
from repro.warehouse.lease import LeaseKeeper
from repro.warehouse.messages import (QUERY_QUEUE, RESPONSE_QUEUE,
                                      QueryRequest, QueryResponse, StopWorker)
from repro.xmldb.parser import parse_document

#: Pause between retries of a query whose index region is blacked out
#: mid-look-up (simulated seconds).  The lease keeper stays on across
#: retries, so the query is *not* redelivered — the worker waits out
#: the outage (or the failover flip) instead of dead-lettering it.
OUTAGE_RETRY_S = 1.0

#: Most (query text, pattern index) row sets memoised per parsed
#: document; the oldest is dropped first.
EVAL_MEMO_PER_DOCUMENT = 64

#: Most distinct (text, name) requests a warehouse keeps parsed (nothing
#: downstream mutates a parsed Query); the oldest is dropped first.
PARSED_QUERIES_PER_WAREHOUSE = 64


@dataclass
class QueryWorkStats:
    """Worker-side measurements for one query execution.

    The three time components correspond to Figures 9b/9c; they are
    measured around phases that internally run in parallel on the
    instance's cores, so (as the paper notes) the externally observed
    response time is systematically *less* than their sum plus queueing.
    """

    query_id: int = 0
    name: str = ""
    received_at: float = 0.0
    deleted_at: float = 0.0
    lookup_get_s: float = 0.0
    lookup_plan_s: float = 0.0
    fetch_eval_s: float = 0.0
    per_pattern_docs: List[int] = field(default_factory=list)
    documents_fetched: int = 0
    docs_with_results: int = 0
    index_gets: int = 0
    rows_processed: int = 0
    result_rows: int = 0
    result_bytes: int = 0
    #: How the look-up resolved: the strategy name (degraded chains
    #: report the candidate actually used, or "s3-scan"/"mixed"),
    #: "index" for a plain look-up, "none" for the no-index baseline.
    index_mode: str = ""
    #: Telemetry span id of the worker's query span.
    span_id: int = 0
    #: Index reads served by the shared store cache during this query's
    #: look-up (0 when no cache is configured).
    store_cache_hits: int = 0
    #: Owning tenant from the wire message ("" in single-owner runs);
    #: per-tenant latency and billing roll-ups key off this.
    tenant: str = ""

    @property
    def processing_s(self) -> float:
        """``ptq`` (§7.1): message retrieved → message deleted."""
        return self.deleted_at - self.received_at

    @property
    def docs_from_index(self) -> int:
        """Table 5 cell: sum of per-pattern document IDs retrieved."""
        return sum(self.per_pattern_docs)


class QueryWorker:
    """One query-processor worker bound to one EC2 instance."""

    def __init__(self, cloud: CloudProvider, instance: Instance,
                 lookup: Optional[BaseLookup], document_bucket: str,
                 results_bucket: str, all_uris: Sequence[str],
                 stats_sink: Dict[int, QueryWorkStats],
                 parsed_queries: Dict[tuple, Any],
                 parsed_documents: Optional[Dict[str, Any]] = None,
                 degraded_lookup: Optional[BaseLookup] = None) -> None:
        """``parsed_documents`` is a parse cache (uri -> Document) shared
        with the owner; parse and evaluation CPU is *charged on the
        instance regardless*, only the host-side work is skipped.  A
        Document carries the memo of the rows evaluated on it, so sharing
        the dict shares the memo and replacing or popping an entry (the
        warehouse does, on every corpus mutation) invalidates both.  With
        ``None`` the dict is private, never invalidated, and dies, memos
        and all, with the worker.  ``parsed_queries`` ((text, name) ->
        Query) is the owner's parsed-query table; a parsed query depends
        on no data, so nothing invalidates it."""
        self._cloud = cloud
        self._instance = instance
        self._lookup = lookup
        self._document_bucket = document_bucket
        self._results_bucket = results_bucket
        self._all_uris = list(all_uris)
        self._stats_sink = stats_sink
        self._parsed_documents = parsed_documents if parsed_documents \
            is not None else {}
        self._parsed_queries = parsed_queries
        #: Alternative look-up used for requests flagged ``degraded``
        #: by admission control (typically a DegradingLookup over the
        #: 2LUPI → LU → scan ladder).
        self._degraded_lookup = degraded_lookup
        #: Whether the worker currently holds a query (observed by the
        #: autoscaler when picking a drain-safe retirement candidate;
        #: False while blocked in ``receive``).
        self.busy = False
        #: Set by :meth:`request_drain` when the worker's spot instance
        #: received an interruption notice: finish the query in hand,
        #: then exit instead of receiving another.
        self.draining = False
        #: The :class:`~repro.serving.spot.InterruptionNotice` that
        #: started the drain (None while healthy).
        self.notice: Optional[Any] = None

    def request_drain(self, notice: Any = None) -> None:
        """Ask the worker to stop after the query it currently holds.

        The graceful half of spot reclamation: called at notice time,
        it never abandons a lease — the in-hand query completes,
        responds and deletes normally, and the worker then exits before
        receiving again.  A worker that cannot finish inside the notice
        window is force-retired by the market instead, and the §3 lease
        lapse / SQS redelivery contract takes over.
        """
        self.draining = True
        self.notice = notice

    # -- main loop -----------------------------------------------------------

    def run(self) -> Generator[Any, Any, int]:
        """Worker process: serve query requests until a poison pill.

        Returns the number of queries served.
        """
        sqs = self._cloud.resilient.sqs
        served = 0
        while True:
            if self.draining:
                self.busy = False
                return served
            self.busy = False
            body, handle = yield from sqs.receive(QUERY_QUEUE)
            self.busy = True
            if isinstance(body, StopWorker):
                try:
                    yield from sqs.delete(QUERY_QUEUE, handle)
                except ReceiptHandleInvalid:
                    pass  # pill redelivered; another worker will take it
                return served
            # §3: keep the lease alive while the query runs, so long
            # queries are not redelivered — unless this worker dies.
            keeper = LeaseKeeper(
                self._cloud, QUERY_QUEUE,
                self._cloud.sqs._queue(QUERY_QUEUE).visibility_timeout)
            keeper.start([handle])
            try:
                while True:
                    try:
                        stats = yield from self._process(body)
                        break
                    except RegionUnavailable:
                        # The index store's region went dark mid-query.
                        # Outages are transient (the chaos plan bounds
                        # them and the failover controller restores or
                        # flips regions), so hold the lease and retry
                        # the whole query once the pause elapses.
                        self._cloud.telemetry.counter(
                            "outage_retries_total",
                            "Queries retried across a region "
                            "outage.").inc()
                        yield self._cloud.env.timeout(OUTAGE_RETRY_S)
            finally:
                keeper.stop()
            yield from sqs.send(RESPONSE_QUEUE, QueryResponse(
                query_id=body.query_id,
                result_key="results/{}.txt".format(body.query_id)))
            try:
                yield from sqs.delete(QUERY_QUEUE, handle)
            except ReceiptHandleInvalid:
                # The lease lapsed under chaos: the query was redelivered
                # and will be answered again.  Results are written to a
                # deterministic key, so the duplicate is indistinguishable
                # and the front end dedups responses by query id.
                pass
            stats.deleted_at = self._cloud.env.now
            self._stats_sink[body.query_id] = stats
            served += 1

    # -- one query -----------------------------------------------------------

    def _process(self, request: QueryRequest,
                 ) -> Generator[Any, Any, QueryWorkStats]:
        env = self._cloud.env
        profile = self._cloud.profile
        tracer = self._cloud.telemetry.tracer
        stats = QueryWorkStats(query_id=request.query_id, name=request.name,
                               received_at=env.now,
                               tenant=request.tenant)
        parsed = self._parsed_queries
        query = parsed.get((request.text, request.name))
        if query is None:
            if len(parsed) >= PARSED_QUERIES_PER_WAREHOUSE:
                del parsed[next(iter(parsed))]  # oldest entry
            query = parsed[request.text, request.name] = parse_query(
                request.text, name=request.name)
        lookup = self._lookup
        if request.degraded and self._degraded_lookup is not None:
            lookup = self._degraded_lookup

        # Tenant-labelled processing spans are what per-tenant billing
        # attributes worker-side store traffic through.
        span_attrs = {"query": request.name, "query_id": request.query_id}
        if stats.tenant:
            span_attrs["tenant"] = stats.tenant
        with tracer.span("query", **span_attrs) as query_span:
            stats.span_id = query_span.span_id

            # Steps 9-10: index look-up (or the no-index full scan list).
            if lookup is not None:
                cache = lookup.store_cache
                hits_before = cache.hits if cache is not None else 0
                lookup_start = env.now
                with tracer.span("index-lookup"):
                    outcome: QueryLookupOutcome = \
                        yield from lookup.lookup_query(query)
                stats.lookup_get_s = env.now - lookup_start
                stats.index_gets = outcome.index_gets
                if cache is not None:
                    # Exact under the sequential per-query protocol;
                    # under pipelining, concurrent queries' hits may
                    # interleave — the shared cache keeps exact totals.
                    stats.store_cache_hits = cache.hits - hits_before
                    query_span.attributes["store_cache_hits"] = \
                        stats.store_cache_hits
                stats.rows_processed = outcome.rows_processed
                stats.per_pattern_docs = [o.document_count
                                          for o in outcome.per_pattern]
                per_pattern_uris = [o.uris for o in outcome.per_pattern]
                # Step 11: the look-up physical plan's CPU.
                plan_start = env.now
                with tracer.span("plan-execution",
                                 rows=outcome.rows_processed):
                    yield from self._instance.run(
                        outcome.rows_processed * profile.plan_ecu_s_per_row)
                stats.lookup_plan_s = env.now - plan_start
                stats.index_mode = lookup.query_resolution or "index"
            else:
                per_pattern_uris = [list(self._all_uris)
                                    for _ in query.patterns]
                stats.per_pattern_docs = [len(u) for u in per_pattern_uris]
                stats.index_mode = "none"

            # Steps 12-13: fetch candidates, evaluate per pattern.
            fetch_start = env.now
            union: List[str] = sorted(
                {uri for uris in per_pattern_uris for uri in uris})
            stats.documents_fetched = len(union)
            pattern_rows: List[List[EvalRow]] = [[] for _ in query.patterns]
            uri_sets: List[Set[str]] = [set(uris)
                                        for uris in per_pattern_uris]
            with tracer.span("fetch-eval", documents=len(union)):
                tasks = [env.process(
                    self._evaluate_document(uri, request.text, query,
                                            uri_sets, pattern_rows),
                    name="eval-{}".format(uri)) for uri in union]
                for task in tasks:
                    yield task
            stats.fetch_eval_s = env.now - fetch_start

            # Value joins (§5.5) and final rows.
            if query.joins:
                join_rows = sum(len(rows) for rows in pattern_rows)
                with tracer.span("value-join", rows=join_rows):
                    yield from self._instance.run(
                        join_rows * profile.join_ecu_s_per_row)
            final_rows = join_query_rows(query, pattern_rows)
            stats.result_rows = len(final_rows)
            stats.result_bytes = result_size_bytes(final_rows)
            stats.docs_with_results = len(
                {part for row in final_rows for part in row.uri.split("+")})

            # Step 14: write the results to the file store.
            payload = "\n".join(
                "\t".join(row.projections)
                for row in final_rows).encode("utf-8")
            with tracer.span("write-results", bytes=len(payload)):
                yield from self._cloud.resilient.s3.put(
                    self._results_bucket,
                    "results/{}.txt".format(request.query_id), payload)
        return stats

    def _evaluate_document(self, uri: str, text: str, query,
                           uri_sets: List[Set[str]],
                           pattern_rows: List[List[EvalRow]],
                           ) -> Generator[Any, Any, None]:
        """Core task: fetch one document and evaluate relevant patterns
        (each query ``text``'s pattern once per parsed Document).

        A candidate whose object is gone was deleted after the look-up:
        it contributes no rows, so the query linearises after the
        delete, and it is counted on ``documents_vanished_total`` and
        the enclosing span's ``documents_vanished``."""
        profile = self._cloud.profile
        try:
            data = yield from self._cloud.resilient.s3.get(
                self._document_bucket, uri)
        except NoSuchKey:
            hub = self._cloud.telemetry
            hub.counter("documents_vanished_total",
                        "Candidates deleted between look-up and "
                        "fetch.").inc()
            span = hub.current_span
            if span is not None:
                span.attributes["documents_vanished"] = \
                    span.attributes.get("documents_vanished", 0) + 1
            return
        document = self._parsed_documents.get(uri)
        if document is None:
            document = parse_document(data, uri)
            self._parsed_documents[uri] = document
        size_mb = len(data) / MB
        work = profile.parse_ecu_s_per_mb * size_mb
        memo = document.__dict__.setdefault("_pattern_rows", {})
        rows_found: List[tuple] = []
        for index, pattern in enumerate(query.patterns):
            if uri not in uri_sets[index]:
                continue
            work += profile.eval_ecu_s_per_mb * size_mb
            rows = memo.get((text, index))
            if rows is None:
                if len(memo) >= EVAL_MEMO_PER_DOCUMENT:
                    del memo[next(iter(memo))]  # oldest entry
                rows = memo[text, index] = tuple(
                    evaluate_pattern(pattern, document))
            rows_found.append((index, rows))
        yield from self._instance.run(work)
        for index, rows in rows_found:
            pattern_rows[index].extend(rows)
