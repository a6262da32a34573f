"""The log-structured read-merge over a base epoch and its delta chain.

A live index's lookups cannot point at fixed physical tables: deltas
are published and compactions flip the base epoch *while serving
workers hold baked lookup planners*.  The
:class:`MergingStore` solves this with one level of indirection — the
planners are built over stable *alias* table names
(``live-<index>-<logical>``) and the store re-resolves each alias to
the current base table plus the current delta chain at every read.  A
lookup issued one simulated second after a delta flip therefore sees
the delta (read-your-writes), and one issued after a compaction reads
the freshly folded base, with no worker restart.

Merge semantics (newest wins, tombstones mask): starting from the base
payload map, each delta in chain order first removes its tombstoned
URIs, then overlays its own payloads per URI wholesale.  A
delete-then-readd resolves to the re-added payload; an update (one
delta carrying both the tombstone and the re-extracted entries)
resolves to the new extraction.  Billable gets accumulate across all
layers — the read amplification that motivates compaction.

A read takes one consistent layer stack and hands each key's merged map
out as a read-only view that keeps its identity while every layer's view
and tombstones do (DESIGN §10), so the warehouse's answer memo replays
look-ups over an unchanged stack.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (Any, Callable, Dict, Generator, Iterable, Iterator, List,
                    Mapping, Sequence, Tuple)

from repro.errors import IndexingError
from repro.indexing.mapper import IndexStore, Payload, WriteStats

__all__ = ["MergingStore", "alias_table", "overlay_payloads"]

#: Every absent layer (no table, no entry for a key): one identity.
_ABSENT: Mapping[str, Any] = MappingProxyType({})


def alias_table(name: str, logical: str) -> str:
    """The stable alias a live index's logical table is looked up under."""
    return "live-{}-{}".format(name.lower(), logical)


def overlay_payloads(base: Mapping[str, Payload],
                     layers: Iterable[Tuple[Mapping[str, Payload],
                                            Iterable[str]]],
                     ) -> Dict[str, Payload]:
    """Merge one key's base payload map with its delta layers.

    ``layers`` holds ``(payloads, tombstones)`` pairs in chain order
    (oldest delta first).  Per layer, tombstones are applied before the
    layer's own payloads, so a delta that deletes and re-adds the same
    URI resolves to the re-added payload.
    """
    merged = dict(base)
    for payloads, tombstones in layers:
        for uri in tombstones:
            merged.pop(uri, None)
        for uri, payload in payloads.items():
            merged[uri] = payload
    return merged


class MergingStore(IndexStore):
    """Read-only :class:`IndexStore` over a live index's layer stack.

    Constructed by (and bound to) one
    :class:`~repro.mutations.live.LiveIndex`; every read asks the live
    handle for the *current* base store, base tables and delta chain,
    so manifest flips are observed immediately by planners that were
    built before the flip.  Writes go through delta publication, never
    through this store — :meth:`write_items` and ``write_entries``
    refuse.
    """

    def __init__(self, live: Any) -> None:
        self._live = live
        self._views = {}
        self.backend_name = live.base_store.backend_name
        #: The base store's answer memo (the warehouse's).
        self.answer_memo = live.base_store.answer_memo

    @property
    def cache(self) -> Any:
        """The deployment's shared read cache (below the merge).

        Cache entries are keyed by the *physical* epoch-scoped table
        names of each layer, never by the alias, so a flip needs no
        wholesale invalidation: post-flip reads key under fresh names.
        """
        return self._live.base_store.cache

    @property
    def coalesce_reads(self) -> bool:
        """Whether planners should hand this store batched reads."""
        return self._live.base_store.coalesce_reads

    @property
    def verify_reads(self) -> bool:
        """Whether every layer's reads check item checksums."""
        return self._live.base_store.verify_reads

    @verify_reads.setter
    def verify_reads(self, value: bool) -> None:
        # The live handle keeps the flag, so layer stores it attaches
        # later (a delta, a compacted base) verify alike.
        live = self._live
        live.verify_reads = value
        live.base_store.verify_reads = value
        for _, store in live.delta_layers():
            if store is not None:
                store.verify_reads = value

    # -- lifecycle (delta publication owns all writes) ---------------------

    def create_table(self, physical_name: str) -> None:
        """Refuse: layer tables are created by delta publication."""
        raise IndexingError(
            "the live merging store is read-only; mutate through "
            "Warehouse.add_documents/delete_documents/update_document")

    def write_items(self, physical_name: str, items: Sequence[Any],
                    ) -> Generator[Any, Any, WriteStats]:
        """Refuse: writes land in delta tables, not through the merge."""
        raise IndexingError(
            "the live merging store is read-only; mutate through "
            "Warehouse.add_documents/delete_documents/update_document")
        yield  # pragma: no cover - unreachable, keeps this a generator

    write_entries = write_items

    # -- reads -------------------------------------------------------------

    @staticmethod
    def _merge_items(items: Sequence[Any], kind: str) -> Dict[str, Payload]:
        """One key's layer stack — its base view, then each delta's view
        and tombstones — overlaid (the ``items`` of :meth:`_view`)."""
        return overlay_payloads(items[0], zip(items[1::2], items[2::2]))

    def _walk(self, physical_name: str, keys: Sequence[str], kind: str,
              read: Callable[[IndexStore, str], Any],
              ) -> Generator[Any, Any,
                             Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Each of ``keys``' merged view, ``read(store, table)`` reading
        one layer (key → view, gets).  A base that a compaction flipped
        while it was read is read again; only then is the chain taken,
        so the folded deltas are neither lost nor resurrected."""
        live = self._live
        logical = live.logical_of(physical_name)
        store, gets = None, 0
        while store is not live.base_store:
            store = live.base_store
            base, base_gets = yield from read(store, live.base_table(logical))
            gets += base_gets
        stacks = {key: [base.get(key) or _ABSENT] for key in keys}
        for delta, store in live.delta_layers():
            got, delta_gets = _ABSENT, 0
            if logical in delta.tables:
                got, delta_gets = yield from read(store, delta.tables[logical])
            gets += delta_gets
            for key, stack in stacks.items():
                stack += (got.get(key) or _ABSENT, delta.tombstones)
        return {key: self._view(physical_name, key, kind, stack)
                for key, stack in stacks.items()}, gets

    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Mapping[str, Payload], int]]:
        """One key's merged payload map across base + deltas."""
        def read(store: IndexStore, table: str) -> Generator[Any, Any, Any]:
            payloads, gets = yield from store.read_key(table, key, kind)
            return {key: payloads}, gets
        views, gets = yield from self._walk(physical_name, (key,), kind, read)
        return views[key], gets

    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[
                      Any, Any, Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Batched merged reads: every layer is read once per key set."""
        return (yield from self._walk(
            physical_name, list(dict.fromkeys(keys)), kind,
            lambda store, table: store.read_keys(table, keys, kind)))

    # -- storage accounting ------------------------------------------------

    def _layers(self, physical_names: Iterable[str],
                ) -> Iterator[Tuple[IndexStore, List[str]]]:
        """Each layer's store with its physical table behind the given
        aliases (a store routes its own tables: the base epoch may be
        laid out under another shard count than the deltas)."""
        live = self._live
        for physical_name in physical_names:
            logical = live.logical_of(physical_name)
            yield live.base_store, [live.base_table(logical)]
            for delta, store in live.delta_layers():
                if logical in delta.tables:
                    yield store, [delta.tables[logical]]

    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes across base + delta tables of the aliases."""
        return sum(store.raw_bytes(tables)
                   for store, tables in self._layers(physical_names))

    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Overhead bytes across base + delta tables of the aliases."""
        return sum(store.overhead_bytes(tables)
                   for store, tables in self._layers(physical_names))
