"""The StoreRouter: one storage-access seam between callers and stores.

Every index consumer — lookup plans, loader workers, consistency
build/scrub/repair, the warehouse itself — talks to an
:class:`~repro.indexing.mapper.IndexStore`.  The router *is* one: it
wraps a backend store (DynamoDB or SimpleDB mapping) and adds the
three storage-access concerns the CloudTree/Airphant line of work
argues belong in a dedicated layer:

- **sharding** — each logical table is hash-partitioned over
  ``shards`` physical tables (:mod:`~repro.store.sharding`);
- **batching** — multi-key reads dedupe and coalesce into per-shard
  ``batch_get`` chunks (:mod:`~repro.store.batch`);
- **caching** — reads flow through the epoch-aware
  :class:`~repro.store.cache.IndexCache`; hits bill nothing.

Every router of a warehouse also carries the warehouse's
:class:`~repro.store.cache.AnswerMemo`, which look-up planners replay
answers from (DESIGN §10, "Looked up once").

With one shard and no cache every method is a pure delegation — same
requests, same simulated latency, same meter records, byte-identical
traces — so the layer is behaviour-preserving until a deployment says
otherwise.  When active, the
router opens ``store.read`` telemetry spans and feeds hit/miss,
coalescing and per-shard balance counters to the metrics registry, so
the savings are visible in traces, metrics and priced costs alike.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (Any, Callable, Dict, Generator, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.indexing.entries import Entries
from repro.indexing.mapper import IndexStore, Payload, WriteStats

from repro.store.batch import BatchPipeline
from repro.store.cache import AnswerMemo, IndexCache
from repro.store.sharding import shard_of, shard_table_names

#: What a batch is sharded by: an entry's index key, an item's hash key.
_ENTRY_KEY, _ITEM_KEY = attrgetter("key"), attrgetter("hash_key")


class StoreRouter(IndexStore):
    """Routes one backend store through sharding, batching and caching.

    Parameters
    ----------
    base:
        The backend :class:`~repro.indexing.mapper.IndexStore` doing
        the actual item mapping.
    telemetry:
        The deployment's :class:`~repro.telemetry.TelemetryHub`, used
        for ``store.read`` spans and the store metrics when active.
    shards:
        Physical tables per logical table (≥ 1); 1 keeps the seed's
        unsuffixed single-table layout.
    cache:
        The shared :class:`~repro.store.cache.IndexCache` reads go
        through (the warehouse passes one cache to every router so
        repeated workload runs hit across builds); ``None`` reads
        uncached.
    epoch:
        The index epoch reads are keyed under in the cache (0 for
        legacy, non-epoch builds whose table names are build-scoped).
    tenant:
        Tenant namespace.  The default ``""`` (single-owner) router is
        byte-identical to the seed; a tenant router prefixes every
        logical table (``tnt-<tenant>--<table>``) and keys cache
        entries under the tenant, so two tenants' tables, cache lines
        and invalidations can never collide.
    answer_memo:
        The warehouse's :class:`~repro.store.cache.AnswerMemo`, which
        look-up planners over this router replay answers from; ``None``
        (they compute every time) unless given.
    """

    def __init__(self, base: IndexStore, telemetry: Any,
                 shards: int = 1,
                 cache: Optional[IndexCache] = None,
                 epoch: int = 0, tenant: str = "",
                 answer_memo: Optional[AnswerMemo] = None) -> None:
        self._base = base
        self.answer_memo = answer_memo
        self.shards = shards
        self.cache = cache
        self._telemetry = telemetry
        self.epoch = epoch
        self.tenant = tenant
        #: shard ordinal -> billable reads routed there (balance stat).
        self.shard_reads: Dict[int, int] = {}
        #: shard ordinal -> physical items written there (balance stat).
        self.shard_writes: Dict[int, int] = {}

    def for_tenant(self, tenant: str) -> "StoreRouter":
        """A router over the same backend scoped to one tenant.

        Shares the backend, shards, cache, answer memo and telemetry —
        only the namespace differs — so tenant routers cost nothing to
        mint per request.
        """
        return StoreRouter(self._base, self._telemetry, shards=self.shards,
                           cache=self.cache, epoch=self.epoch, tenant=tenant,
                           answer_memo=self.answer_memo)

    def _physical(self, physical_name: str) -> str:
        """Map a logical table into the router's tenant namespace."""
        if not self.tenant:
            return physical_name
        return "tnt-{}--{}".format(self.tenant, physical_name)

    # -- delegated identity ------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The wrapped backend's name ("dynamodb" or "simpledb")."""
        return self._base.backend_name

    @property
    def base_store(self) -> IndexStore:
        """The wrapped backend store."""
        return self._base

    @property
    def range_key_mode(self) -> str:
        """The wrapped store's range-key discipline."""
        return self._base.range_key_mode

    @property
    def verify_reads(self) -> bool:
        """Whether the wrapped store checks item checksums on read."""
        return self._base.verify_reads

    @verify_reads.setter
    def verify_reads(self, value: bool) -> None:
        self._base.verify_reads = value

    @property
    def passthrough(self) -> bool:
        """True when the router adds nothing (seed behaviour)."""
        return self.shards == 1 and self.cache is None

    @property
    def coalesce_reads(self) -> bool:
        """Whether lookup plans should hand this store batched reads.

        Lookup planners check this flag: when set, per-key point reads
        are collected and issued as coalesced ``batch_get`` calls.  Off
        in passthrough mode so default-configuration traces stay
        byte-identical to the seed's per-key requests.
        """
        return not self.passthrough

    # -- routing -----------------------------------------------------------

    def shard_tables(self, physical: str) -> List[str]:
        """All physical shard tables behind one logical table."""
        return shard_table_names(self._physical(physical),
                                 self.shards)

    def shard_table_for(self, physical: str, key: str) -> str:
        """The shard table one hash key routes to."""
        return self.shard_tables(physical)[
            shard_of(key, self.shards)]

    # -- telemetry ---------------------------------------------------------

    def _count(self, name: str, help_text: str, amount: float = 1.0,
               **labels: str) -> None:
        if amount == 0:
            return
        self._telemetry.counter(
            name, help_text, tuple(sorted(labels))).inc(amount, **labels)

    def _note_cache(self, hits: int, misses: int) -> None:
        self._count("store_cache_hits_total",
                    "Index reads served from the epoch-aware cache.",
                    hits)
        self._count("store_cache_misses_total",
                    "Index reads that went to the backend store.",
                    misses)

    def _note_shard_read(self, shard: int, gets: int) -> None:
        self.shard_reads[shard] = self.shard_reads.get(shard, 0) + gets
        self._count("store_shard_reads_total",
                    "Billable index gets per shard (balance).",
                    gets, shard=str(shard))

    def _note_shard_write(self, shard: int, items: int) -> None:
        self.shard_writes[shard] = self.shard_writes.get(shard, 0) + items
        self._count("store_shard_writes_total",
                    "Physical items written per shard (balance).",
                    items, shard=str(shard))

    # -- table lifecycle ---------------------------------------------------

    def create_table(self, physical_name: str) -> None:
        """Create every shard table backing one logical table."""
        for shard_table in self.shard_tables(physical_name):
            self._base.create_table(shard_table)

    def create_physical_table(self, shard_table: str) -> None:
        """Create one *already-routed* shard table (scrub repair path)."""
        self._base.create_table(shard_table)

    # -- writes ------------------------------------------------------------

    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Persist a batch, partitioned to its shards; merged stats."""
        stats = yield from self._write_by_shard(
            physical_name, entries, _ENTRY_KEY, self._base.write_entries)
        if self.cache is not None:
            # Write-through coherence: an ingest or repair into a live
            # table must not leave stale payloads behind.
            for key in dict.fromkeys([entry.key for entry in entries]):
                self.cache.discard(physical_name, key, self.epoch,
                                   self.tenant)
        return stats

    def write_items(self, physical_name: str, items: Sequence[Any],
                    ) -> Generator[Any, Any, WriteStats]:
        """Persist packed items, partitioned to their shards by hash
        key; merged stats.  Items come from a fold, into an epoch no
        reader has read, so no cache line is discarded."""
        return (yield from self._write_by_shard(
            physical_name, items, _ITEM_KEY, self._base.write_items))

    def _write_by_shard(self, physical_name: str, batch: Sequence[Any],
                        key_of: Callable[[Any], str],
                        write: Callable[..., Generator[Any, Any, WriteStats]],
                        ) -> Generator[Any, Any, WriteStats]:
        """``write`` each shard's part of ``batch`` (split by
        ``key_of``), in shard order; merged stats."""
        if self.passthrough:
            return (yield from write(self._physical(physical_name), batch))
        names = self.shard_tables(physical_name)
        by_shard: Dict[int, Sequence[Any]] = {0: batch}  # one shard: whole
        if self.shards > 1:
            by_shard = {}
            for element in batch:
                by_shard.setdefault(
                    shard_of(key_of(element), self.shards), []).append(element)
        stats = WriteStats()
        for shard in sorted(by_shard):
            shard_stats = yield from write(names[shard], by_shard[shard])
            stats.merge(shard_stats)
            self._note_shard_write(shard, shard_stats.items)
        return stats

    def take_written(self) -> Dict[int, Tuple[Any, bytes]]:
        """The wrapped store's written forms, handed over."""
        return self._base.take_written()

    # -- reads -------------------------------------------------------------

    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Mapping[str, Payload], int]]:
        """One key's payload map; cache hits bill zero gets."""
        if self.passthrough:
            result = yield from self._base.read_key(
                self._physical(physical_name), key, kind)
            return result
        if self.cache is not None:
            cached = self.cache.get(physical_name, key, self.epoch,
                                    self.tenant)
            if cached is not None:
                self._note_cache(1, 0)
                return cached, 0
        shard = shard_of(key, self.shards)
        payloads, gets = yield from self._base.read_key(
            self.shard_tables(physical_name)[shard], key, kind)
        self._note_shard_read(shard, gets)
        if self.cache is not None:
            self._note_cache(0, 1)
            self.cache.put(physical_name, key, self.epoch, payloads,
                           self.tenant)
        return payloads, gets

    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[
                      Any, Any, Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Batched reads through cache, dedupe and per-shard coalescing."""
        if self.passthrough:
            result = yield from self._base.read_keys(
                self._physical(physical_name), keys, kind)
            return result
        pipeline = BatchPipeline(shards=self.shards)
        result: Dict[str, Mapping[str, Payload]] = {}
        hits = 0
        for key in dict.fromkeys(keys):
            if self.cache is not None:
                cached = self.cache.get(physical_name, key, self.epoch,
                                        self.tenant)
                if cached is not None:
                    result[key] = cached
                    hits += 1
                    continue
            pipeline.add(key)
        gets = 0
        with self._telemetry.tracer.span("store.read", table=physical_name,
                                         keys=len(keys)) as span:
            for shard, shard_table, chunk in pipeline.batches(
                    self._physical(physical_name)):
                got, chunk_gets = yield from self._base.read_keys(
                    shard_table, chunk, kind)
                gets += chunk_gets
                self._note_shard_read(shard, chunk_gets)
                for key in chunk:
                    payloads = got.get(key, {})
                    result[key] = payloads
                    if self.cache is not None:
                        self.cache.put(physical_name, key, self.epoch,
                                       payloads, self.tenant)
            span.attributes["cache_hits"] = hits
            span.attributes["billed_gets"] = gets
        self._note_cache(hits, pipeline.unique)
        self._count("store_coalesced_reads_total",
                    "Duplicate point reads absorbed before billing.",
                    pipeline.coalesced_savings
                    + (len(keys) - len(dict.fromkeys(keys))))
        return result, gets

    # -- storage accounting ------------------------------------------------

    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes across every shard of the given tables."""
        return self._base.raw_bytes(
            [shard_table for physical in physical_names
             for shard_table in self.shard_tables(physical)])

    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Store overhead bytes across every shard of the given tables."""
        return self._base.overhead_bytes(
            [shard_table for physical in physical_names
             for shard_table in self.shard_tables(physical)])
