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
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Sequence, Tuple

from repro.errors import IndexingError
from repro.indexing.entries import Entries
from repro.indexing.mapper import IndexStore, Payload, WriteStats

__all__ = ["MergingStore", "alias_table", "overlay_payloads"]


def alias_table(name: str, logical: str) -> str:
    """The stable alias a live index's logical table is looked up under."""
    return "live-{}-{}".format(name.lower(), logical)


def overlay_payloads(base: Dict[str, Payload],
                     layers: Sequence[Tuple[Dict[str, Payload],
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
    through this store — :meth:`write_entries` refuses.
    """

    def __init__(self, live: Any) -> None:
        self._live = live

    @property
    def backend_name(self) -> str:
        """The base store's backend name."""
        return self._live.base_store.backend_name

    @property
    def cache(self) -> Any:
        """The deployment's shared read cache (below the merge).

        Cache entries are keyed by the *physical* epoch-scoped table
        names of each layer, never by the alias, so a flip needs no
        wholesale invalidation: post-flip reads key under fresh names.
        """
        return getattr(self._live.base_store, "cache", None)

    @property
    def coalesce_reads(self) -> bool:
        """Whether planners should hand this store batched reads."""
        return getattr(self._live.base_store, "coalesce_reads", False)

    # -- lifecycle (delta publication owns all writes) ---------------------

    def create_table(self, physical_name: str) -> None:
        """Refuse: layer tables are created by delta publication."""
        raise IndexingError(
            "the live merging store is read-only; mutate through "
            "Warehouse.add_documents/delete_documents/update_document")

    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Refuse: writes land in delta tables, not through the merge."""
        raise IndexingError(
            "the live merging store is read-only; mutate through "
            "Warehouse.add_documents/delete_documents/update_document")
        yield  # pragma: no cover - unreachable, keeps this a generator

    # -- reads -------------------------------------------------------------

    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Dict[str, Payload], int]]:
        """One key's merged payload map across base + deltas."""
        live = self._live
        logical = live.logical_of(physical_name)
        payloads, gets = yield from live.base_store.read_key(
            live.base_table(logical), key, kind)
        layers: List[Tuple[Dict[str, Payload], Tuple[str, ...]]] = []
        for delta, store in live.delta_layers():
            table = delta.tables.get(logical)
            if table is None:
                layers.append(({}, delta.tombstones))
                continue
            delta_payloads, delta_gets = yield from store.read_key(
                table, key, kind)
            gets += delta_gets
            layers.append((delta_payloads, delta.tombstones))
        return overlay_payloads(payloads, layers), gets

    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[Any, Any,
                                 Tuple[Dict[str, Dict[str, Payload]], int]]:
        """Batched merged reads: every layer is read once per key set."""
        live = self._live
        logical = live.logical_of(physical_name)
        base_map, gets = yield from live.base_store.read_keys(
            live.base_table(logical), keys, kind)
        layer_maps: List[Tuple[Dict[str, Dict[str, Payload]],
                               Tuple[str, ...]]] = []
        for delta, store in live.delta_layers():
            table = delta.tables.get(logical)
            if table is None:
                layer_maps.append(({}, delta.tombstones))
                continue
            got, delta_gets = yield from store.read_keys(table, keys, kind)
            gets += delta_gets
            layer_maps.append((got, delta.tombstones))
        result: Dict[str, Dict[str, Payload]] = {}
        for key in dict.fromkeys(keys):
            result[key] = overlay_payloads(
                base_map.get(key, {}),
                [(layer.get(key, {}), tombstones)
                 for layer, tombstones in layer_maps])
        return result, gets

    # -- storage accounting ------------------------------------------------

    def _layer_tables(self, physical_names: Iterable[str]) -> List[str]:
        """Physical tables of every layer behind the given aliases."""
        live = self._live
        tables: List[str] = []
        for physical_name in physical_names:
            logical = live.logical_of(physical_name)
            tables.append(live.base_table(logical))
            for delta, _ in live.delta_layers():
                table = delta.tables.get(logical)
                if table is not None:
                    tables.append(table)
        return tables

    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes across base + delta tables of the aliases."""
        return self._live.base_store.raw_bytes(
            self._layer_tables(physical_names))

    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Overhead bytes across base + delta tables of the aliases."""
        return self._live.base_store.overhead_bytes(
            self._layer_tables(physical_names))
