"""Physical index storage: mapping entries to key-value store items (§6).

DynamoDB mapping (the paper's, §6): every entry becomes one or more
items with a composite primary key — hash key = the index entry key,
range key = a UUID generated at indexing time.  "Using UUIDs as range
keys ensures that we can insert items in the index concurrently, from
multiple virtual machines, as items with the same hash key always
contain different range keys and thus cannot be overwritten.  Also,
using UUID instead of mapping each attribute name to a range key allows
the system to reduce the number of items in the store for an index
entry" — the alternative (one item per URI attribute, range key = URI)
is kept as ``range_key_mode="attribute"`` for the ablation bench.
Attribute names are whole document URIs, bar the one bookkeeping name
:data:`~repro.indexing.checksums.CHECKSUM_ATTR`; attribute values hold
the payload: nothing (LU), label paths (LUP), or a compact *binary*
blob of encoded structural IDs (LUI) — the DynamoDB feature §8.4
credits for much of the improvement over [8].  Items are split when
they would exceed the 64 KB item limit.

SimpleDB mapping (the [8] baseline): domains have no range keys, so an
entry shards over items named ``key#<uuid>`` (parsed back by
:func:`simpledb_item_key`); attribute values are limited to 1 KB of
*text*, so ID lists are stored in their textual form, chunked at
whole-ID boundaries with an explicit sequence prefix (no binary blobs
in SimpleDB).  Reads use a name-prefix select.
"""

from __future__ import annotations

import abc
import hashlib
import random
from dataclasses import dataclass
from operator import is_
from types import MappingProxyType
from typing import (Any, Dict, Generator, Iterable, List, Mapping, Sequence,
                    Tuple, Union)

from repro.cloud.dynamodb import (BATCH_GET_LIMIT, BATCH_PUT_LIMIT, DynamoDB,
                                  DynamoItem, MAX_ITEM_BYTES, attribute_size,
                                  value_size)
from repro.cloud.simpledb import (MAX_ATTRIBUTES_PER_ITEM, MAX_VALUE_BYTES,
                                  SimpleDB, SimpleDBItem)
from repro.cloud.simpledb import BATCH_PUT_LIMIT as SDB_BATCH_PUT_LIMIT
from repro.errors import IndexingError, IntegrityError
from repro.indexing.checksums import (CHECKSUM_ATTR, checksum_of,
                                      item_checksum, key_prefix,
                                      range_key_of, uuid4_text)
from repro.indexing.entries import Entries, IndexEntry, Posting
from repro.xmldb.blocks import IDBlock
from repro.xmldb.encoding import decode_ids, decode_ids_text, encode_ids
from repro.xmldb.ids import NodeID

#: Payload returned per URI by reads: None (presence), tuple of paths,
#: or the sorted IDs as an :class:`~repro.xmldb.blocks.IDBlock`.  The
#: write side (``Entries``) never sees one: a compaction's per-URI maps
#: hold the scanned :class:`Posting` where a read's hold a payload.
#: A backend read hands each key's map out as a read-only view (see
#: :meth:`IndexStore._view`).
Payload = Any

#: Safety margin under the DynamoDB item limit for key bytes.
_ITEM_BUDGET = MAX_ITEM_BYTES - 4096
#: Chunk budget for SimpleDB textual values (sequence prefix included).
_SDB_CHUNK_BUDGET = MAX_VALUE_BYTES - 24


@dataclass
class WriteStats:
    """Accounting for one write call."""

    puts: int = 0        # billable put operations (|op(D, I)| contribution)
    items: int = 0       # physical items written
    batches: int = 0     # batchPut API requests issued
    payload_bytes: int = 0

    def merge(self, other: "WriteStats") -> None:
        """Accumulate another call's stats into this one."""
        self.puts += other.puts
        self.items += other.items
        self.batches += other.batches
        self.payload_bytes += other.payload_bytes


class IndexStore(abc.ABC):
    """Backend-independent index storage interface."""

    backend_name: str = ""
    #: A backend's read memo: (physical table, key, kind) -> (the items
    #: merged, the read-only view over their merged map).
    _views: Dict[Tuple[str, str, str], Tuple[tuple, Mapping[str, Payload]]]

    def _view(self, physical_name: str, key: str, kind: str,
              items: Sequence[Any]) -> Mapping[str, Payload]:
        """One key's payload map over the ``items`` just read: the held
        view while the store hands back the very same item objects in
        the same order (items are frozen; damage and repairs store new
        objects), else a view over a fresh ``_merge_items``.  A view
        keeps its identity exactly as long as its items do, which is
        what an answer memo keys on (DESIGN §10, "Looked up once")."""
        memo_key = (physical_name, key, kind)
        held = self._views.get(memo_key)
        if held is not None and len(held[0]) == len(items) and all(
                map(is_, held[0], items)):
            return held[1]
        view = MappingProxyType(self._merge_items(items, kind))
        self._views[memo_key] = (tuple(items), view)
        return view

    @abc.abstractmethod
    def create_table(self, physical_name: str) -> None:
        """Create the physical table/domain (idempotence not required)."""

    @abc.abstractmethod
    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Persist a batch (postings or entries); returns write stats."""

    @abc.abstractmethod
    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Mapping[str, Payload], int]]:
        """All (URI → payload) for one index key; returns also the number
        of billable get operations issued."""

    @abc.abstractmethod
    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[
                      Any, Any, Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Batched variant: key → (URI → payload), plus billable gets."""

    @abc.abstractmethod
    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes stored (``sr(D, I)``, §7.1)."""

    @abc.abstractmethod
    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Store-internal overhead bytes (``ovh(D, I)``, §7.1)."""

    def stored_bytes(self, physical_names: Iterable[str]) -> int:
        """``s(D, I) = sr + ovh`` (§7.1)."""
        names = list(physical_names)
        return self.raw_bytes(names) + self.overhead_bytes(names)

    def take_written(self) -> Dict[int, Tuple[Any, bytes]]:
        """Hand over, and forget, ``id(item)`` → ``(item, canonical
        form)`` for each item packed since the last take (only a
        content-addressed store records any)."""
        return {}


# ---------------------------------------------------------------------------
# DynamoDB
# ---------------------------------------------------------------------------


def stored_postings(entries: Entries, canonical: bool = True,
                    ) -> List[Posting]:
    """A batch in stored form: an entry is encoded here, once (an ID
    list to one blob); a posting, converted earlier, passes through."""
    return [entry if entry.__class__ is Posting else Posting(
                entry.key, entry.uri,
                (encode_ids(entry.ids),) if entry.ids else tuple(entry.paths),
                canonical)
            for entry in entries]


def _canonical(hash_key: str, held: Mapping[str, Posting]) -> bytes:
    """The canonical form of the item holding exactly these postings
    (by attribute name), joined from their pieces."""
    return key_prefix(hash_key) + b"".join(
        [held[name].piece for name in sorted(held)])


def _check_stamp(physical_name: str, item: DynamoItem, actual: str) -> None:
    """Raise unless the item's stamped checksum is ``actual``."""
    stamped = item.attributes[CHECKSUM_ATTR][0]
    if stamped != actual:
        raise IntegrityError(
            "checksum mismatch in {} at ({!r}, {!r}): "
            "stamped {} != computed {}".format(
                physical_name, item.hash_key, item.range_key,
                stamped, actual))


def batch_entries_hash(extracted: Mapping[str, Entries]) -> str:
    """Content hash of one loader batch's extracted entries.

    Hashes the encoded payloads (what actually lands in the store), per
    logical table in sorted order — the value the batch ledger records.
    Extraction is deterministic, so a redelivered batch always hashes
    identically; a mismatch in the ledger means a determinism bug, not
    a fault.  Each posting's form (table, key prefix, piece) streams
    into one hash, framed as by :func:`batch_content_hash`.
    """
    digest = hashlib.sha256()
    update = digest.update
    for logical_table in sorted(extracted):
        prefix = logical_table.encode("utf-8") + b"\x00"
        key = head = None
        for posting in stored_postings(extracted[logical_table]):
            if posting.key != key:
                key = posting.key
                head = prefix + key_prefix(key)
            piece = posting.piece
            update(b"%d:" % (len(head) + len(piece)))
            update(head)
            update(piece)
    return digest.hexdigest()


class DynamoIndexStore(IndexStore):
    """The §6 DynamoDB mapping."""

    backend_name = "dynamodb"

    def __init__(self, dynamodb: DynamoDB, seed: int = 0,
                 range_key_mode: str = "uuid",
                 verify_reads: bool = False) -> None:
        if range_key_mode not in ("uuid", "attribute", "content"):
            raise IndexingError(
                "range_key_mode must be 'uuid', 'attribute' or 'content', "
                "got {!r}".format(range_key_mode))
        self._db = dynamodb
        self._rng = random.Random(seed)
        self.range_key_mode = range_key_mode
        self.verify_reads = verify_reads
        #: The item is held beside its form so its id stays its own.
        self._written: Dict[int, Tuple[DynamoItem, bytes]] = {}
        self._views = {}

    def take_written(self) -> Dict[int, Tuple[DynamoItem, bytes]]:
        """See :meth:`IndexStore.take_written`."""
        written, self._written = self._written, {}
        return written

    def _uuid(self) -> str:
        """A UUID range key ([20]); seeded for reproducible runs."""
        return uuid4_text(self._rng.getrandbits(128))

    def _finish_item(self, hash_key: str, held: Dict[str, Posting],
                     attr_bytes: int, uri_key: str = "") -> DynamoItem:
        """Close an item over the postings it holds (by URI), under the
        mode's range-key discipline.

        ``uuid`` draws a fresh random key (§6); ``content`` derives the
        key from the content and stamps the checksum attribute, making
        the write idempotent and scrub-verifiable (one canonical form,
        joined from the postings' pieces, feeds both, and is recorded
        for the digest that scans the item back); ``attribute`` uses
        ``uri_key``.  The item is born with the size budgeted.
        """
        attrs = {uri: posting.values for uri, posting in held.items()}
        if self.range_key_mode == "attribute":
            return DynamoItem.sized(hash_key, uri_key, attrs, attr_bytes)
        if self.range_key_mode == "content":
            canonical = _canonical(hash_key, held)
            checksum = (checksum_of(canonical),)
            attrs[CHECKSUM_ATTR] = checksum
            item = DynamoItem.sized(
                hash_key, range_key_of(canonical), attrs,
                attr_bytes + attribute_size(CHECKSUM_ATTR, checksum))
            self._written[id(item)] = (item, canonical)
            return item
        return DynamoItem.sized(hash_key, self._uuid(), attrs, attr_bytes)

    def create_table(self, physical_name: str) -> None:
        """Create the physical table/domain."""
        self._db.create_table(physical_name, has_range_key=True)

    # -- writes -------------------------------------------------------------

    def _posting_items(self, posting: Posting) -> List[DynamoItem]:
        """Items for one posting alone, splitting an oversized payload."""
        key, uri, values = posting.key, posting.uri, posting.values
        value_bytes = posting.attr_bytes - value_size(uri)
        if value_bytes <= _ITEM_BUDGET:
            return [self._finish_item(key, {uri: posting},
                                      posting.attr_bytes, uri)]
        # Oversized payload: split across items.
        chunks: List[Tuple[Any, ...]] = []
        if isinstance(values[0], bytes):
            # The one ID blob splits at whole IDs, so it is decoded.
            # Varints grow with the values, so equal counts need not
            # encode equal sizes: add chunks until every one fits.
            ids = decode_ids(values[0])
            parts = value_bytes // _ITEM_BUDGET
            while not chunks or any(len(blob) > _ITEM_BUDGET
                                    for blob, in chunks):
                parts += 1
                size = max(1, (len(ids) + parts - 1) // parts)
                chunks = [(encode_ids(ids[start:start + size]),)
                          for start in range(0, len(ids), size)]
        else:  # paths
            chunk: List[str] = []
            size = 0
            for path in values:
                path_bytes = value_size(path)
                if chunk and size + path_bytes > _ITEM_BUDGET:
                    chunks.append(tuple(chunk))
                    chunk, size = [], 0
                chunk.append(path)
                size += path_bytes
            if chunk:
                chunks.append(tuple(chunk))
        return [self._finish_item(key, {uri: part}, part.attr_bytes,
                                  "{}#{}".format(uri, index))
                for index, part in enumerate(
                    Posting(key, uri, chunk, self.range_key_mode == "content")
                    for chunk in chunks)]

    def _pack_items(self, entries: Entries) -> List[DynamoItem]:
        """Map a batch of entries (or ready postings) to items.

        In ``uuid`` mode entries sharing a key are *packed* into shared
        items (up to the item budget) — the paper's point about UUIDs
        reducing item counts; in ``attribute`` mode every entry keeps
        its own item (range key = URI), which is the ablation baseline.
        Each entry is encoded and sized once, here or by its sender.
        """
        canonical = self.range_key_mode == "content"
        if self.range_key_mode == "attribute":
            return [item for posting in stored_postings(entries, canonical)
                    for item in self._posting_items(posting)]
        by_key: Dict[str, List[Posting]] = {}
        for posting in stored_postings(entries, canonical):
            by_key.setdefault(posting.key, []).append(posting)
        items: List[DynamoItem] = []
        for key in sorted(by_key):
            held: Dict[str, Posting] = {}
            size = 0
            for posting in by_key[key]:
                attr_bytes = posting.attr_bytes
                if attr_bytes > _ITEM_BUDGET:
                    # Oversized single posting: dedicated split items.
                    items.extend(self._posting_items(posting))
                    continue
                if held and size + attr_bytes > _ITEM_BUDGET:
                    items.append(self._finish_item(key, held, size))
                    held, size = {}, 0
                held[posting.uri] = posting
                size += attr_bytes
            if held:
                items.append(self._finish_item(key, held, size))
        return items

    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Persist a loader batch; returns write stats."""
        stats = WriteStats()
        items = self._pack_items(entries)
        stats.items = len(items)
        stats.puts = len(items)
        for start in range(0, len(items), BATCH_PUT_LIMIT):
            batch = items[start:start + BATCH_PUT_LIMIT]
            yield from self._db.batch_put(physical_name, batch)
            stats.batches += 1
            stats.payload_bytes += sum(item.size_bytes for item in batch)
        return stats

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _merge_items(items: Sequence[DynamoItem], kind: str,
                     ) -> Dict[str, Payload]:
        merged: Dict[str, Payload] = {}
        blobs: Dict[str, List[bytes]] = {}
        for item in items:
            for uri, values in item.attributes.items():
                if uri == CHECKSUM_ATTR:
                    continue  # bookkeeping, not a URI
                if kind == "presence":
                    merged[uri] = None
                elif kind == "paths":
                    # A URI's first sighting with distinct paths is
                    # already merged: stored as is.
                    existing = merged.get(uri)
                    merged[uri] = values if existing is None and len(
                        set(values)) == len(values) else tuple(
                        dict.fromkeys((*(existing or ()), *values)))
                else:  # ids
                    blobs.setdefault(uri, []).extend(values)
        # The single-blob common case stays *encoded*: the block reads
        # only the count varint here and decodes straight to columns if
        # the engine ever joins this URI.  Chunks of a split item and a
        # redelivered batch's duplicates are merged back to one sorted
        # list (see :meth:`IDBlock.from_encoded_chunks`).
        for uri, uri_blobs in blobs.items():
            merged[uri] = IDBlock.from_encoded_chunks(uri_blobs)
        return merged

    @staticmethod
    def _stored_postings(physical_name: str, items: Sequence[DynamoItem],
                         kind: str) -> Dict[str, Dict[str, Posting]]:
        """:meth:`_merge_items` without leaving stored form, over a
        scanned table: key → URI → the posting a rewrite would store
        (the compaction fold's regroup step).

        Each attribute becomes a posting once, and its piece serves
        twice.  Joined per item, the pieces are the canonical form the
        stamped checksum is verified against: carrying bytes means
        vouching for them.  And a posting that is its URI's only
        sighting, checksummed and already in merged form, is carried as
        is — only ``encode_ids`` ever wrote a blob under a checksum, so
        decode → encode would reproduce it.  A key with any other URI
        (a list split over items, a redelivered batch, repeated paths,
        no checksum) takes what :meth:`_merge_items` makes of it.
        """
        by_key: Dict[str, Dict[str, Posting]] = {}
        again = set()
        for item in items:
            key = item.hash_key
            merged = by_key.setdefault(key, {})
            held = {name: Posting(key, name, values)
                    for name, values in item.attributes.items()
                    if name != CHECKSUM_ATTR}
            stamped = CHECKSUM_ATTR in item.attributes
            if stamped:
                _check_stamp(physical_name, item,
                             checksum_of(_canonical(key, held)))
            for name, posting in held.items():
                values = posting.values
                is_merged = (not values if kind == "presence" else
                             len(values) < 2 or (
                                 kind == "paths"
                                 and len(set(values)) == len(values)))
                if not stamped or not is_merged or name in merged:
                    again.add(key)
                merged[name] = posting
        for key in again:  # the whole key takes the decode route
            payloads = DynamoIndexStore._merge_items(
                [item for item in items if item.hash_key == key], kind)
            by_key[key] = {
                uri: Posting(key, uri, (encode_ids(payload),)
                             if payload and kind == "ids"
                             else tuple(payload or ()))
                for uri, payload in payloads.items()}
        return by_key

    def _verify_items(self, physical_name: str,
                      items: Sequence[DynamoItem]) -> None:
        """Check stamped checksums; unstamped (legacy) items pass."""
        for item in items:
            if CHECKSUM_ATTR in item.attributes:
                _check_stamp(physical_name, item, item_checksum(
                    item.hash_key, item.attributes))

    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Mapping[str, Payload], int]]:
        """(URI -> payload) map for one key, plus billable gets."""
        items = yield from self._db.get(physical_name, key)
        if self.verify_reads:
            self._verify_items(physical_name, items)
        return self._view(physical_name, key, kind, items), 1

    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[
                      Any, Any, Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Batched reads: key -> (URI -> payload), plus billable gets."""
        result: Dict[str, Mapping[str, Payload]] = {}
        gets = 0
        unique_keys = list(dict.fromkeys(keys))
        for start in range(0, len(unique_keys), BATCH_GET_LIMIT):
            chunk = unique_keys[start:start + BATCH_GET_LIMIT]
            grouped = yield from self._db.batch_get(physical_name, chunk)
            gets += len(chunk)
            for chunk_key, items in grouped.items():
                if self.verify_reads:
                    self._verify_items(physical_name, items)
                result[chunk_key] = self._view(physical_name, chunk_key,
                                               kind, items)
        return result, gets

    # -- storage accounting -----------------------------------------------------

    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes stored (``sr(D, I)``)."""
        return self._db.raw_bytes(list(physical_names))

    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Store-internal overhead bytes (``ovh(D, I)``)."""
        return self._db.overhead_bytes(list(physical_names))


# ---------------------------------------------------------------------------
# SimpleDB
# ---------------------------------------------------------------------------


def _chunk_ids_text(ids: Sequence[NodeID]) -> List[str]:
    """Textual ID chunks ≤ 1 KB, split at whole-ID boundaries, each
    prefixed with its sequence number so reassembly needs no sort."""
    chunks: List[str] = []
    current: List[str] = []
    size = 0
    for node_id in ids:
        piece = node_id.as_text()
        if current and size + len(piece) > _SDB_CHUNK_BUDGET:
            chunks.append("{:04d}|{}".format(len(chunks), "".join(current)))
            current, size = [], 0
        current.append(piece)
        size += len(piece)
    if current or not chunks:
        chunks.append("{:04d}|{}".format(len(chunks), "".join(current)))
    return chunks


def simpledb_item_key(name: str) -> str:
    """The index key of a SimpleDB item named ``key#<uuid>``: cut at the
    *last* ``#``, since a key may hold one and a UUID never does."""
    return name.rsplit("#", 1)[0]


class SimpleDBIndexStore(IndexStore):
    """The [8] SimpleDB mapping, with its per-value and per-item limits."""

    backend_name = "simpledb"

    def __init__(self, simpledb: SimpleDB, seed: int = 0) -> None:
        self._db = simpledb
        self._rng = random.Random(seed)
        self._views = {}

    def _shard_name(self, key: str) -> str:
        return "{}#{}".format(key, uuid4_text(self._rng.getrandbits(128)))

    def create_table(self, physical_name: str) -> None:
        """Create the physical table/domain."""
        self._db.create_domain(physical_name)

    # -- writes -------------------------------------------------------------

    def _entry_pairs(self, entry: Union[IndexEntry, Posting],
                     ) -> List[Tuple[str, str]]:
        """(attribute name, value) pairs for one entry: name = URI.
        SimpleDB holds text, so a posting's ID blob is decoded."""
        if entry.__class__ is Posting:
            paths, ids = entry.values, ()
            if paths and isinstance(paths[0], bytes):
                paths, ids = (), decode_ids(paths[0])
        else:
            paths, ids = entry.paths, entry.ids
        if ids:
            return [(entry.uri, chunk) for chunk in _chunk_ids_text(ids)]
        for path in paths:
            if len(path.encode("utf-8")) > MAX_VALUE_BYTES:
                raise IndexingError(
                    "path exceeds the SimpleDB 1KB value limit: "
                    "{!r}".format(path[:80]))
        return [(entry.uri, path) for path in paths] or [(entry.uri, "")]

    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Persist a loader batch; returns write stats."""
        stats = WriteStats()
        by_key: Dict[str, List[Tuple[str, str]]] = {}
        for entry in entries:
            by_key.setdefault(entry.key, []).extend(self._entry_pairs(entry))
        items: List[SimpleDBItem] = []
        for key in sorted(by_key):
            pairs = by_key[key]
            for start in range(0, len(pairs), MAX_ATTRIBUTES_PER_ITEM):
                shard = tuple(pairs[start:start + MAX_ATTRIBUTES_PER_ITEM])
                items.append(SimpleDBItem(name=self._shard_name(key),
                                          attributes=shard))
        stats.items = len(items)
        stats.puts = len(items)
        for start in range(0, len(items), SDB_BATCH_PUT_LIMIT):
            batch = items[start:start + SDB_BATCH_PUT_LIMIT]
            yield from self._db.batch_put(physical_name, batch)
            stats.batches += 1
            stats.payload_bytes += sum(item.size_bytes for item in batch)
        return stats

    # -- reads ---------------------------------------------------------------

    @staticmethod
    def _merge_items(items: Sequence[SimpleDBItem], kind: str,
                     ) -> Dict[str, Payload]:
        merged: Dict[str, Payload] = {}
        chunks: Dict[str, List[str]] = {}
        for item in items:
            for attr_uri, value in item.attributes:
                if kind == "presence":
                    merged[attr_uri] = None
                elif kind == "paths":
                    existing = list(merged.get(attr_uri, ()))
                    if value not in existing:
                        existing.append(value)
                    merged[attr_uri] = tuple(existing)
                else:
                    chunks.setdefault(attr_uri, []).append(value)
        if kind == "ids":
            for attr_uri, parts in chunks.items():
                # A redelivered loader batch re-shards identical chunks
                # under fresh item names; dedup before reassembly.
                unique = list(dict.fromkeys(parts))
                unique.sort(key=lambda chunk: int(chunk.split("|", 1)[0]))
                text = "".join(part.split("|", 1)[1] for part in unique)
                # Text, so the decode is paid here; the join kernels
                # still get columns.
                merged[attr_uri] = IDBlock.from_ids(decode_ids_text(text))
        return merged

    def read_key(self, physical_name: str, key: str, kind: str,
                 ) -> Generator[Any, Any, Tuple[Mapping[str, Payload], int]]:
        """(URI -> payload) map for one key, plus billable gets."""
        items = yield from self._db.select_prefix(physical_name, key + "#")
        # The prefix also matches the items of a key ``key#...``: the
        # select bills them, the merge keeps only this key's own.
        return self._view(physical_name, key, kind, [
            item for item in items
            if simpledb_item_key(item.name) == key]), 1

    def read_keys(self, physical_name: str, keys: Sequence[str], kind: str,
                  ) -> Generator[
                      Any, Any, Tuple[Dict[str, Mapping[str, Payload]], int]]:
        """Batched reads: key -> (URI -> payload), plus billable gets."""
        # SimpleDB has no batchGet: one select per key (a cost the
        # Tables 7-8 comparison feels directly).
        result: Dict[str, Mapping[str, Payload]] = {}
        gets = 0
        for key in dict.fromkeys(keys):
            payloads, requests = yield from self.read_key(
                physical_name, key, kind)
            result[key] = payloads
            gets += requests
        return result, gets

    # -- storage accounting -----------------------------------------------------

    def raw_bytes(self, physical_names: Iterable[str]) -> int:
        """User-data bytes stored (``sr(D, I)``)."""
        return self._db.raw_bytes(list(physical_names))

    def overhead_bytes(self, physical_names: Iterable[str]) -> int:
        """Store-internal overhead bytes (``ovh(D, I)``)."""
        return self._db.overhead_bytes(list(physical_names))
