"""The indexing module: loader workers on EC2 instances (Figure 1, 4-6).

A worker loops on the loader request queue; for each batch of document
references it fetches the documents from S3, parses them and extracts
index entries (CPU work on the instance's cores, in parallel — the
"multi-threading" of §3), then uploads the entries to the index store
(bounded by DynamoDB's provisioned write throughput, which is why the
paper observed "DynamoDB was the bottleneck while indexing" and used
``l`` rather than ``xl`` loader instances).  Messages are deleted only
after their documents are fully indexed, so a crashed worker's work is
redelivered to another instance.

Documents are processed in batches (§8.1: "the documents were gathered
in batches by multiple instances [...] to minimize the number of calls
needed to load the index into DynamoDB"): entries of a whole batch are
packed together into DynamoDB items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Generator, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.cloud.ec2 import Instance
from repro.cloud.provider import CloudProvider
from repro.config import MB, PerformanceProfile
from repro.errors import ReceiptHandleInvalid
from repro.indexing.base import ExtractionStats, IndexingStrategy
from repro.indexing.entries import Posting
from repro.indexing.mapper import IndexStore, WriteStats, batch_entries_hash
from repro.warehouse.lease import LeaseKeeper
from repro.warehouse.messages import (LOADER_QUEUE, BatchLoadRequest,
                                      LoadRequest, StopWorker)
from repro.xmldb.parser import parse_document  # noqa: F401 (benchmarks/e2e pins this alias)


@dataclass
class LoaderWorkerStats:
    """Per-worker accounting for one index build."""

    documents: int = 0
    batches: int = 0
    #: Checkpointed batches skipped because the ledger already had them
    #: (redeliveries after a crash, or a resume racing stale messages).
    skipped_batches: int = 0
    #: Wall (simulated) seconds spent in the extraction phase.
    extraction_s: float = 0.0
    #: Wall (simulated) seconds spent uploading to the index store.
    upload_s: float = 0.0
    first_receive: Optional[float] = None
    last_delete: float = 0.0
    extraction: ExtractionStats = field(
        default_factory=ExtractionStats)
    writes: WriteStats = field(default_factory=WriteStats)


def extraction_cpu_ecu_s(profile: PerformanceProfile, document_bytes: int,
                         stats: ExtractionStats) -> float:
    """ECU-seconds to parse one document and extract its entries."""
    parse = profile.parse_ecu_s_per_mb * (document_bytes / MB)
    extract = (stats.entries * profile.extract_ecu_s_per_entry
               + stats.ids * profile.extract_ecu_s_per_id
               + stats.paths * profile.extract_ecu_s_per_path)
    return parse + extract


class IndexerWorker:
    """One loader worker bound to one EC2 instance."""

    def __init__(self, cloud: CloudProvider, instance: Instance,
                 store: IndexStore, strategy: IndexingStrategy,
                 table_names: Dict[str, str], document_bucket: str,
                 batch_size: int = 8, ledger: Optional[Any] = None) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._cloud = cloud
        self._instance = instance
        self._store = store
        self._strategy = strategy
        self._table_names = table_names
        self._bucket = document_bucket
        self._batch_size = batch_size
        #: Batch ledger for checkpointed builds (duck-typed:
        #: :class:`repro.consistency.ledger.BatchLedger`); None for
        #: legacy builds, whose behaviour is unchanged.
        self._ledger = ledger
        #: Postings are born with their canonical piece exactly when
        #: the store addresses items by content (and so reads it).
        self._canonical = store.range_key_mode == "content"
        self.stats = LoaderWorkerStats()

    def _visibility_timeout(self) -> float:
        """The loader queue's configured visibility timeout."""
        return self._cloud.sqs._queue(LOADER_QUEUE).visibility_timeout

    # -- main loop -----------------------------------------------------------

    def run(self) -> Generator[Any, Any, LoaderWorkerStats]:
        """Worker process: consume load requests until a poison pill."""
        sqs = self._cloud.resilient.sqs
        while True:
            body, handle = yield from sqs.receive(LOADER_QUEUE)
            if isinstance(body, StopWorker):
                yield from self._delete_quietly(handle)
                return self.stats
            if self.stats.first_receive is None:
                self.stats.first_receive = self._cloud.env.now
            if isinstance(body, BatchLoadRequest):
                # Checkpointed build: the batch composition was fixed at
                # plan time, so there is no opportunistic fill — a
                # redelivery must process exactly the same documents.
                keeper = LeaseKeeper(self._cloud, LOADER_QUEUE,
                                     self._visibility_timeout())
                keeper.start([handle])
                try:
                    yield from self._process_fixed_batch(body)
                finally:
                    keeper.stop()
                yield from self._delete_quietly(handle)
                self.stats.last_delete = self._cloud.env.now
                continue
            batch: List[Tuple[LoadRequest, str]] = [(body, handle)]
            # Opportunistically fill the batch without blocking.
            while len(batch) < self._batch_size:
                extra = yield from sqs.receive_if_available(LOADER_QUEUE)
                if extra is None or isinstance(extra[0], StopWorker):
                    if extra is not None:
                        # Put the pill back for the other workers by
                        # releasing our lease immediately.
                        try:
                            yield from sqs.renew(LOADER_QUEUE, extra[1],
                                                 1e-9)
                        except ReceiptHandleInvalid:
                            pass  # lease already lapsed; pill is back
                    break
                batch.append(extra)
            # Keep the batch's leases alive while it processes (§3):
            # a crash stops the heartbeat and the messages reappear.
            keeper = LeaseKeeper(self._cloud, LOADER_QUEUE,
                                 self._visibility_timeout())
            keeper.start([handle for _, handle in batch])
            try:
                yield from self._process_batch(
                    [request for request, _ in batch])
            finally:
                keeper.stop()
            for _, batch_handle in batch:
                yield from self._delete_quietly(batch_handle)
                self.stats.last_delete = self._cloud.env.now

    def _delete_quietly(self, handle: str) -> Generator[Any, Any, None]:
        """Delete a message, tolerating an already-lapsed lease.

        Under chaos a batch can take long enough (retry backoff, latency
        spikes) for a lease to lapse despite the heartbeat; the message
        was then redelivered and another worker will index it again —
        the index mapping is idempotent, so correctness is unaffected.
        """
        try:
            yield from self._cloud.resilient.sqs.delete(LOADER_QUEUE, handle)
        except ReceiptHandleInvalid:
            pass

    # -- batch processing -------------------------------------------------------

    def _process_fixed_batch(self, request: BatchLoadRequest,
                             ) -> Generator[Any, Any, None]:
        """One checkpointed batch: ledger check → process → record.

        The ledger entry is written *after* the upload and *before* the
        caller deletes the SQS message.  Every crash window is safe:
        before the entry exists a redelivery rewrites byte-identical
        content-addressed items; after it exists the redelivery is
        skipped here.
        """
        if self._ledger is not None:
            applied = yield from self._ledger.lookup(request.batch_id)
            if applied is not None:
                self.stats.skipped_batches += 1
                return
        # Entries are assembled in *request order*, not task-completion
        # order, so the batch's content (and therefore its items and its
        # ledger hash) is identical no matter when or where it is
        # (re)processed.
        done = yield from self._extract_all(request.uris)
        per_document = dict(done)
        extracted = yield from self._upload(
            per_document[uri] for uri in request.uris)
        if self._ledger is not None:
            yield from self._ledger.record(request.batch_id,
                                           batch_entries_hash(extracted))

    def _process_batch(self, requests: List[LoadRequest],
                       ) -> Generator[Any, Any, None]:
        done = yield from self._extract_all(
            [request.uri for request in requests])
        yield from self._upload(by_table for _, by_table in done)

    def _extract_all(self, uris: Sequence[str]) -> Generator[
            Any, Any, List[Tuple[str, Dict[str, List[Posting]]]]]:
        """Phase 1 — extraction: fetch + parse + extract, one core task
        per document (intra-machine parallelism).  Returns ``(uri,
        postings by table)`` pairs in task-completion order."""
        env = self._cloud.env
        self.stats.batches += 1
        done: List[Tuple[str, Dict[str, List[Posting]]]] = []
        phase_start = env.now
        tasks = [env.process(self._extract(uri, done),
                             name="extract-{}".format(uri))
                 for uri in uris]
        for task in tasks:
            yield task
        self.stats.extraction_s += env.now - phase_start
        self.stats.documents += len(uris)
        return done

    def _upload(self, documents: Iterable[Dict[str, List[Posting]]],
                ) -> Generator[Any, Any, Dict[str, List[Posting]]]:
        """Phase 2 — upload: write the batch's postings, assembled in the
        order given, per logical table; returns them by table."""
        env = self._cloud.env
        extracted: Dict[str, List[Posting]] = {
            table: [] for table in self._strategy.logical_tables}
        for by_table in documents:
            for logical_table, postings in by_table.items():
                extracted[logical_table].extend(postings)
        upload_start = env.now
        for logical_table, postings in extracted.items():
            if postings:
                write_stats = yield from self._store.write_entries(
                    self._table_names[logical_table], postings)
                self.stats.writes.merge(write_stats)
        self.stats.upload_s += env.now - upload_start
        return extracted

    def _extract(self, uri: str,
                 done: List[Tuple[str, Dict[str, List[Posting]]]],
                 ) -> Generator[Any, Any, None]:
        """One core task: fetch, extract from the bytes, charge the CPU,
        then append ``(uri, postings by table)`` to ``done``."""
        data = yield from self._cloud.resilient.s3.get(self._bucket, uri)
        by_table, stats = self._strategy.extract_postings(
            data, uri, self._canonical)
        work = extraction_cpu_ecu_s(self._cloud.profile, len(data), stats)
        yield from self._instance.run(work)
        self.stats.extraction.merge(stats)
        done.append((uri, by_table))
