"""The four end-to-end workloads, their oracle and their exact outputs.

Each workload drives only the public ``repro`` API and is split into
the steps the harness (``run.py``) times separately:

``prepare()``
    once per process, untimed: generate the inputs from the seed into a
    plain in-memory *model corpus* and compute every query's expected
    rows with ``engine.evaluator.evaluate_query`` (the oracle).
``setup()``
    everything before the timed section -- corpus generation, and where
    they are not the timed section itself, upload, prerequisite index
    builds, live attach.  Reported as ``setup_s``.
``main(state)``
    the timed section (see the table in README.md).
``probe(state)``
    a closed-loop read-back of q1..q10 through ``run_query`` on the
    state the main section left behind.  It checks the answers against
    the oracle and supplies the per-call latency samples on the three
    workloads whose main section is one batch call.
``verify(state)``
    untimed: oracle and tie-out checks, the simulated outputs and their
    digest, and the exact counts read from public objects.

Module-level ``repro`` functions are called through their modules
(``repro.generate_corpus(...)``) so that a traced round reaches the
tracer's wrappers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro import costs
from repro.config import ScaleProfile
from repro.costs.metrics import DatasetMetrics
from repro.engine import evaluator
from repro.mutations import CompactionPolicy, compaction_ticker, mutation_feed
from repro.query.workload import WORKLOAD_ORDER
from repro.serving import AutoscalePolicy
from repro.serving.report import percentile
from repro.tenancy import TenancyConfig, TenantSpec
from repro.xmldb import parser as xml_parser

__all__ = ["WORKLOADS", "SIZES", "SMOKE_SIZES", "Outcome", "make_workload"]

#: ``ScaleProfile.document_bytes`` for every corpus (the CLI's
#: ``--document-kb 8``).
DOCUMENT_BYTES = 8 * 1024

#: Strategies of the closed-loop workload, in the paper's order.
STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")

#: Meter tag of the served section.  The program's default tag carries a
#: process-wide serial, which would make the rounds of one invocation
#: differ in their (otherwise identical) simulated reports.
SERVE_TAG = "serve:e2e"

#: Workload sizes.  One round (set-up, timed section, read-back) is
#: 2-4 s of real time on the idle 2-vCPU reference box, so that four or
#: five rounds, each on freshly built state, fit one invocation and the
#: driver's 92 invocations fit its hour even when the host runs at half
#: speed.  ISSUE.md's sizes (1500 / 200 / 400 / 300 documents, 6-9 s per
#: timed section, three rounds) would take three times the budget.
SIZES: Dict[str, Dict[str, Any]] = {
    "build-2lupi": {"documents": 400},
    "query-closed": {"documents": 100, "passes": 3},
    "serve-tenants": {"documents": 250, "arrivals_per_tenant": 120,
                      "rate_qps": 4.0, "cache_bytes": 4 << 20},
    "ingest-live": {"documents": 160, "queries": 60, "rate_qps": 2.0,
                    "cycles": 3, "add_documents": 8,
                    "delete_documents": 9, "mutation_interval_s": 4.0,
                    "compaction_interval_s": 4.0, "cache_bytes": 65536},
}

#: ``--smoke``: all four workloads in a few seconds (the test suite).
SMOKE_SIZES: Dict[str, Dict[str, Any]] = {
    "build-2lupi": {"documents": 40},
    "query-closed": {"documents": 24, "passes": 1},
    "serve-tenants": {"documents": 40, "arrivals_per_tenant": 12,
                      "rate_qps": 4.0, "cache_bytes": 4 << 20},
    "ingest-live": {"documents": 40, "queries": 16, "rate_qps": 2.0,
                    "cycles": 2, "add_documents": 4,
                    "delete_documents": 4, "mutation_interval_s": 2.0,
                    "compaction_interval_s": 2.0, "cache_bytes": 16384},
}


@dataclasses.dataclass
class Outcome:
    """What one round produced, beyond its wall-clock times."""

    #: Units of work the main section completed correctly (documents
    #: indexed on the build workload, queries answered elsewhere).
    ops: int
    attempted: int
    failed: int
    #: Human-readable reasons for the failures (first few).
    failures: List[str]
    #: The five simulated end-to-end metrics (exact, seed-determined).
    sim: Dict[str, float]
    #: SHA-256 of the canonical JSON of every simulated output.
    sim_digest: str
    #: Exact per-layer counts read from public objects.
    counts: Dict[str, float]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _execution_payload(execution: Any) -> Dict[str, Any]:
    """One ``QueryExecution``'s simulated fields and dollars."""
    payload = dataclasses.asdict(execution)
    cost = execution.cost
    payload["cost"] = None if cost is None else cost.total
    return payload


class Workload:
    """Shared plumbing: corpus, oracle, closed loop, counts."""

    name = ""
    #: What one unit of ``ops_per_s`` is on this workload.
    unit = "queries"
    #: Which step issues the closed-loop ``run_query`` calls whose
    #: latencies are sampled: the read-back probe, or the main section
    #: itself on the closed-loop workload.
    calls_in = "probe"

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        self.seed = seed
        self.sizes = dict(sizes)
        #: Query name -> (rows, bytes) the oracle expects from the
        #: state the timed section leaves behind.
        self.expected: Dict[str, Tuple[int, int]] = {}

    # -- inputs and oracle ---------------------------------------------------

    def _corpus(self, documents: int, seed_offset: int = 0) -> Any:
        return repro.generate_corpus(ScaleProfile(
            documents=documents, document_bytes=DOCUMENT_BYTES,
            seed=self.seed + seed_offset))

    def _model(self) -> Dict[str, bytes]:
        """The model corpus the answers must match: URI -> XML bytes."""
        return dict(self._corpus(self.sizes["documents"]).data)

    def prepare(self) -> None:
        """Compute the oracle's expected answers (untimed)."""
        model = self._model()
        documents = [xml_parser.parse_document(data, uri)
                     for uri, data in sorted(model.items())]
        for query in repro.workload():
            rows = evaluator.evaluate_query(query, documents)
            self.expected[query.name] = (
                len(rows), evaluator.result_size_bytes(rows))

    # -- steps (overridden) --------------------------------------------------

    def setup(self) -> SimpleNamespace:
        raise NotImplementedError

    def main(self, state: SimpleNamespace) -> None:
        raise NotImplementedError

    def probe(self, state: SimpleNamespace) -> None:
        """Read q1..q10 back, one ``run_query`` at a time."""
        self._closed_loop(state, [state.index], passes=1)

    def verify(self, state: SimpleNamespace) -> Outcome:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _new_state(self, warehouse: Any, corpus: Any) -> SimpleNamespace:
        return SimpleNamespace(
            warehouse=warehouse, corpus=corpus,
            queries=[repro.workload_query(name) for name in WORKLOAD_ORDER],
            executions=[], latencies_ms=[], builds=[], serving=None,
            index=None, live=None,
            # Seconds the harness's host-speed sampler has interrupted
            # this process for so far; the harness plugs its own in.
            sampler_busy_s=lambda: 0.0)

    @staticmethod
    def _mark(state: SimpleNamespace) -> None:
        """Remember where the timed section starts in the run's logs."""
        warehouse = state.warehouse
        state.meter_start = len(warehouse.cloud.meter)
        state.spans_start = len(warehouse.telemetry.tracer)
        cache = warehouse.index_cache
        state.cache_start = cache.stats() if cache is not None else None

    @staticmethod
    def _closed_loop(state: SimpleNamespace, indexes: Sequence[Any],
                     passes: int) -> None:
        """``passes`` x ``indexes`` x q1..q10, one call at a time."""
        run_query = state.warehouse.run_query
        clock, sampler_busy_s = time.perf_counter, state.sampler_busy_s
        for _ in range(passes):
            for index in indexes:
                for query in state.queries:
                    busy, started = sampler_busy_s(), clock()
                    execution = run_query(query, index)
                    elapsed = clock() - started - (sampler_busy_s() - busy)
                    state.latencies_ms.append(elapsed * 1e3)
                    state.executions.append(execution)

    def _check_executions(self, state: SimpleNamespace,
                          failures: List[str]) -> int:
        """Oracle check of every closed-loop call; returns the failures."""
        failed = 0
        for execution in state.executions:
            got = (execution.result_rows, execution.result_bytes)
            want = self.expected[execution.name]
            if got != want or execution.downgrade:
                failed += 1
                failures.append(
                    "{} on {}: rows/bytes {} != oracle {} (downgrade "
                    "{!r})".format(execution.name, execution.strategy_name,
                                   got, want, execution.downgrade))
        return failed

    def _check_serving(self, report: Any, offered: int,
                       failures: List[str]) -> int:
        """Queries of one ``serve()`` that count as answered correctly.

        A false dollar tie-out fails every operation of the round.  The
        span-vs-estimator tie-out must be exact; the per-tenant bills
        must re-add to the totals to within rounding (see
        ``tenancy.bills_exact`` in README.md for why not exactly).
        """
        bills = report.tenant_bills
        bills_add_up = not bills or (
            math.isclose(sum(bill.request_cost for bill in bills),
                         report.estimator_request_cost, rel_tol=1e-12)
            and math.isclose(sum(bill.ec2_cost for bill in bills),
                             report.ec2_cost, rel_tol=1e-12))
        if not (report.cost_tied_out and bills_add_up):
            failures.append("serve: dollars do not tie out (cost {} "
                            "tenants {})".format(report.cost_tied_out,
                                                 bills_add_up))
            return 0
        problems = []
        if report.offered != offered:
            problems.append("offered {} != {}".format(report.offered,
                                                      offered))
        if report.completed != report.offered:
            problems.append("completed {} of {}".format(report.completed,
                                                        report.offered))
        if report.shed or report.degraded:
            problems.append("shed {} degraded {}".format(report.shed,
                                                         report.degraded))
        if problems:
            failures.append("serve: " + ", ".join(problems))
        return max(0, min(report.completed, offered)
                   - report.shed - report.degraded)

    def _sim_metrics(self, state: SimpleNamespace) -> Dict[str, float]:
        """The simulated-clock end-to-end metrics of one round."""
        warehouse = state.warehouse
        book = warehouse.cloud.price_book
        corpus_bytes = warehouse.corpus.total_bytes
        stored = (state.live.stored_bytes() if state.live is not None
                  else sum(built.report.stored_bytes
                           for built in state.builds))
        serving = state.serving
        if serving is not None:
            response_p95 = serving.p95_s
            usd_per_query = serving.cost_per_query
        else:
            dataset = DatasetMetrics.of_corpus(warehouse.corpus)
            response_p95 = percentile(
                [e.response_s for e in state.executions], 95)
            usd_per_query = (sum(costs.query_cost(e, dataset, book)
                                 for e in state.executions)
                             / len(state.executions))
        return {
            "sim_build_s": sum(built.report.total_s
                               for built in state.builds),
            "sim_build_usd": sum(
                costs.estimator.build_phase_cost(warehouse, built).total
                for built in state.builds),
            "sim_response_p95_s": response_p95,
            "sim_usd_per_query": usd_per_query,
            "index_bytes_per_doc_byte": stored / corpus_bytes,
        }

    def _sim_payload(self, state: SimpleNamespace) -> Dict[str, Any]:
        """Every simulated output of the round, canonically shaped."""
        payload: Dict[str, Any] = {
            "builds": [dataclasses.asdict(built.report)
                       for built in state.builds],
            "executions": [_execution_payload(execution)
                           for execution in state.executions],
        }
        if state.serving is not None:
            payload["serving"] = state.serving.to_dict()
        if state.live is not None:
            payload["ingestion"] = state.live.ingestion_report().to_payload()
        return payload

    def _counts(self, state: SimpleNamespace) -> Dict[str, float]:
        """Exact counts of the timed section, from public objects."""
        warehouse = state.warehouse
        records = list(itertools.islice(warehouse.cloud.meter,
                                        state.meter_start, None))

        def requests(service: str, *operations: str) -> int:
            return sum(r.count for r in records if r.service == service
                       and r.operation in operations)

        executions = state.executions
        docs_from_index = sum(e.docs_from_index for e in executions)
        docs_with_results = sum(e.docs_with_results for e in executions)
        counts: Dict[str, float] = {
            "xmldb.bytes_parsed": sum(
                r.bytes_out for r in records
                if r.service == "s3" and r.operation == "get"),
            "indexing.index_gets": sum(e.index_gets for e in executions),
            "indexing.docs_from_index": docs_from_index,
            "indexing.lookup_precision": (
                docs_with_results / docs_from_index
                if docs_from_index else 0.0),
            "engine.rows_processed": sum(
                e.rows_processed for e in executions),
            "engine.docs_evaluated": sum(
                e.documents_fetched for e in executions),
            "engine.result_rows": sum(e.result_rows for e in executions),
            "cloud.dynamodb_puts": requests("dynamodb", "put"),
            "cloud.dynamodb_gets": requests("dynamodb", "get", "scan"),
            "cloud.dynamodb_bytes_in": sum(
                r.bytes_in for r in records if r.service == "dynamodb"),
            "cloud.dynamodb_bytes_out": sum(
                r.bytes_out for r in records if r.service == "dynamodb"),
            "cloud.s3_gets": requests("s3", "get"),
            "cloud.s3_puts": requests("s3", "put"),
            "cloud.sqs_requests": sum(
                r.count for r in records if r.service == "sqs"),
            "telemetry.spans": (len(warehouse.telemetry.tracer)
                                - state.spans_start),
            "telemetry.meter_records": len(records),
        }
        cache = warehouse.index_cache
        if cache is not None:
            now, start = cache.stats(), state.cache_start
            hits = now["hits"] - start["hits"]
            misses = now["misses"] - start["misses"]
            counts.update({
                "store.cache_hits": hits,
                "store.cache_misses": misses,
                "store.cache_hit_ratio": (
                    hits / (hits + misses) if hits + misses else 0.0),
                "store.cache_evictions": (now["evictions"]
                                          - start["evictions"]),
                "store.cache_invalidations": (now["invalidations"]
                                              - start["invalidations"]),
            })
        serving = state.serving
        if serving is not None:
            counts.update({
                "serving.offered": serving.offered,
                "serving.completed": serving.completed,
                "serving.shed": serving.shed,
                "serving.degraded": serving.degraded,
                "serving.redelivered": serving.redelivered,
                "serving.peak_workers": serving.peak_workers,
                "tenancy.bills_exact": int(serving.tenants_tied_out),
            })
        return counts

    def _outcome(self, state: SimpleNamespace, ops: int, attempted: int,
                 failed: int, failures: List[str],
                 extra_counts: Optional[Dict[str, float]] = None,
                 ) -> Outcome:
        counts = self._counts(state)
        counts.update(extra_counts or {})
        return Outcome(ops=ops, attempted=attempted, failed=failed,
                       failures=failures[:8],
                       sim=self._sim_metrics(state),
                       sim_digest=_digest(self._sim_payload(state)),
                       counts=counts)


class Build2LUPI(Workload):
    """The write path: upload + one 2LUPI build over the whole corpus."""

    name = "build-2lupi"
    unit = "documents"

    def setup(self) -> SimpleNamespace:
        corpus = self._corpus(self.sizes["documents"])
        state = self._new_state(repro.Warehouse(), corpus)
        self._mark(state)
        return state

    def main(self, state: SimpleNamespace) -> None:
        state.warehouse.upload_corpus(state.corpus)
        state.index = state.warehouse.build_index("2LUPI")
        state.builds.append(state.index)

    def verify(self, state: SimpleNamespace) -> Outcome:
        failures: List[str] = []
        report = state.index.report
        documents = self.sizes["documents"]
        indexed = min(report.documents, documents)
        if report.documents != documents:
            failures.append("build indexed {} of {} documents".format(
                report.documents, documents))
        failed = (documents - indexed) + self._check_executions(
            state, failures)
        return self._outcome(
            state, ops=indexed,
            attempted=documents + len(state.executions), failed=failed,
            failures=failures,
            extra_counts={"indexing.entries": report.entries,
                          "indexing.items_packed": report.items})


class QueryClosed(Workload):
    """Closed loop, one client: every call is one query on one
    warehouse whose history keeps growing."""

    name = "query-closed"
    calls_in = "main"

    def setup(self) -> SimpleNamespace:
        corpus = self._corpus(self.sizes["documents"])
        state = self._new_state(repro.Warehouse(), corpus)
        state.warehouse.upload_corpus(corpus)
        state.builds = [state.warehouse.build_index(strategy)
                        for strategy in STRATEGIES]
        self._mark(state)
        return state

    def main(self, state: SimpleNamespace) -> None:
        self._closed_loop(state, state.builds, self.sizes["passes"])

    def probe(self, state: SimpleNamespace) -> None:
        """The main section already is the closed loop."""

    def verify(self, state: SimpleNamespace) -> Outcome:
        failures: List[str] = []
        failed = self._check_executions(state, failures)
        attempted = len(state.executions)
        return self._outcome(state, ops=attempted - failed,
                             attempted=attempted, failed=failed,
                             failures=failures)


class ServeTenants(Workload):
    """Open loop in simulated time: two tenants on a sharded, cached,
    autoscaled fleet behind the fair-share scheduler."""

    name = "serve-tenants"

    def setup(self) -> SimpleNamespace:
        corpus = self._corpus(self.sizes["documents"])
        warehouse = repro.Warehouse.deploy({
            "workers": 2, "shards": 3,
            "cache_bytes": self.sizes["cache_bytes"],
            "autoscale": AutoscalePolicy(min_workers=1, max_workers=4),
            "tenancy": TenancyConfig(
                tenants=(TenantSpec(name="steady", weight=4.0),
                         TenantSpec(name="storm", weight=1.0)),
                scheduler="fair")})
        state = self._new_state(warehouse, corpus)
        warehouse.upload_corpus(corpus)
        state.index = warehouse.build_index("2LUPI")
        state.builds.append(state.index)
        self._mark(state)
        return state

    def main(self, state: SimpleNamespace) -> None:
        state.serving = state.warehouse.serve(
            {"arrival": "burst", "rate_qps": self.sizes["rate_qps"],
             "queries": self.sizes["arrivals_per_tenant"],
             "seed": self.seed}, state.index, tag=SERVE_TAG)

    def verify(self, state: SimpleNamespace) -> Outcome:
        failures: List[str] = []
        offered = 2 * self.sizes["arrivals_per_tenant"]
        answered = self._check_serving(state.serving, offered, failures)
        failed = (offered - answered) + self._check_executions(
            state, failures)
        return self._outcome(
            state, ops=answered,
            attempted=offered + len(state.executions), failed=failed,
            failures=failures)


class IngestLive(Workload):
    """Writes beside reads: a tombstone delta, then a mutation feed and
    a compaction ticker in the background of served traffic, on a cache
    smaller than the working set."""

    name = "ingest-live"

    def _mutations(self, base: Any) -> Tuple[List[str],
                                             List[Tuple[str, Any]]]:
        """The seeded mutations: the base URIs deleted before traffic
        starts, and the feed beside it, ``cycles`` x [add, update].

        Deletes are not in the feed because the program cannot take
        them beside reads: a query that looked a document up before the
        tombstone flip and fetches it after the S3 delete dies with
        ``NoSuchKey`` and takes ``serve()`` with it (about one run in
        ten with deletes in the feed; see README.md).  Deleted and
        updated URIs are distinct base documents; an update replaces
        its document with a freshly generated one.
        """
        sizes = self.sizes
        cycles, deletes = sizes["cycles"], sizes["delete_documents"]
        rng = random.Random(self.seed)
        victims = rng.sample([doc.uri for doc in base.documents],
                             deletes + cycles)
        replacements = self._corpus(cycles, seed_offset=9000)
        feed: List[Tuple[str, Any]] = []
        for cycle in range(cycles):
            increment = self._corpus(sizes["add_documents"],
                                     seed_offset=7001 + cycle)
            prefix = "inc{}-".format(cycle + 1)
            for document in increment.documents:
                document.uri = prefix + document.uri
            increment.data = {prefix + uri: data
                              for uri, data in increment.data.items()}
            increment.kinds = {prefix + uri: kind
                               for uri, kind in increment.kinds.items()}
            feed.append(("add", increment))
            replacement = replacements.documents[cycle].uri
            feed.append(("update", (victims[deletes + cycle],
                                    replacements.data[replacement])))
        return victims[:deletes], feed

    def _model(self) -> Dict[str, bytes]:
        base = self._corpus(self.sizes["documents"])
        deleted, feed = self._mutations(base)
        model = {uri: data for uri, data in base.data.items()
                 if uri not in deleted}
        for op, payload in feed:
            if op == "add":
                model.update(payload.data)
            else:
                uri, data = payload
                model[uri] = data
        return model

    def setup(self) -> SimpleNamespace:
        corpus = self._corpus(self.sizes["documents"])
        warehouse = repro.Warehouse.deploy({
            "workers": 2, "cache_bytes": self.sizes["cache_bytes"]})
        state = self._new_state(warehouse, corpus)
        state.deleted, state.feed = self._mutations(corpus)
        warehouse.upload_corpus(corpus)
        built, record = warehouse.build_index_checkpointed("2LUPI")
        state.builds.append(built)
        state.live = state.index = warehouse.live_index(record.name)
        self._mark(state)
        return state

    def main(self, state: SimpleNamespace) -> None:
        sizes = self.sizes
        state.warehouse.delete_documents(state.live, state.deleted)
        background = [
            mutation_feed(state.live, state.feed,
                          interval_s=sizes["mutation_interval_s"]),
            compaction_ticker(
                state.live, CompactionPolicy(max_deltas=3),
                interval_s=sizes["compaction_interval_s"],
                # Tick until well after the last mutation, so the chain
                # is folded at least once more after the feed ends.
                max_ticks=6 * len(state.feed))]
        state.serving = state.warehouse.serve(
            {"arrival": "poisson", "rate_qps": sizes["rate_qps"],
             "queries": sizes["queries"], "seed": self.seed},
            state.live, background=background, tag=SERVE_TAG)

    def verify(self, state: SimpleNamespace) -> Outcome:
        failures: List[str] = []
        offered = self.sizes["queries"]
        answered = self._check_serving(state.serving, offered, failures)
        live = state.live
        mutations = 1 + len(state.feed)
        applied = len(live.history)
        if applied != mutations:
            failures.append("{} of {} mutations published".format(
                applied, mutations))
        if live.history and live.history[0].cost_tied_out is False:
            failures.append("delete: span dollars != estimator dollars")
            applied -= 1
        failed = ((offered - answered) + (mutations - min(applied, mutations))
                  + self._check_executions(state, failures))
        committed = [c for c in live.compactions if c.committed]
        return self._outcome(
            state, ops=answered,
            attempted=offered + mutations + len(state.executions),
            failed=failed, failures=failures,
            extra_counts={
                "indexing.entries": sum(d.entries for d in live.history),
                "indexing.items_packed": (
                    sum(d.items for d in live.history)
                    + sum(c.items for c in live.compactions)),
                "mutations.deltas": len(live.history),
                "mutations.compactions": len(committed),
                "mutations.delta_puts": sum(d.puts for d in live.history),
                "mutations.compaction_puts": sum(
                    c.puts for c in live.compactions),
                "consistency.batches_applied": (
                    sum(d.batches for d in live.history)
                    + sum(c.batches for c in live.compactions)),
            })


WORKLOADS = {cls.name: cls for cls in (Build2LUPI, QueryClosed,
                                       ServeTenants, IngestLive)}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload at benchmark (or ``--smoke``) size."""
    sizes = SMOKE_SIZES if smoke else SIZES
    return WORKLOADS[name](seed, sizes[name])
