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
from operator import attrgetter, is_
from types import MappingProxyType
from typing import (Any, Callable, Dict, Generator, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.cloud.dynamodb import (BATCH_GET_LIMIT, BATCH_PUT_LIMIT, DynamoDB,
                                  DynamoItem, MAX_ITEM_BYTES, attribute_size,
                                  value_size)
from repro.cloud.simpledb import (MAX_ATTRIBUTES_PER_ITEM, MAX_VALUE_BYTES,
                                  SimpleDB, SimpleDBItem)
from repro.cloud.simpledb import BATCH_PUT_LIMIT as SDB_BATCH_PUT_LIMIT
from repro.errors import IndexingError, IntegrityError
from repro.indexing.checksums import (CHECKSUM_ATTR, AttrValue,
                                      attribute_head, attribute_piece,
                                      checksum_of, item_checksum,
                                      key_prefix, range_key_of, uuid4_text)
from repro.indexing.entries import Entries, IndexEntry, Posting
from repro.xmldb.blocks import IDBlock
from repro.xmldb.encoding import decode_ids, decode_ids_text, encode_ids
from repro.xmldb.ids import NodeID

#: Payload returned per URI by reads: None (presence), tuple of paths,
#: or the sorted IDs as an :class:`~repro.xmldb.blocks.IDBlock`.  The
#: write side (``Entries``) never sees one: a compaction's per-URI maps
#: hold the scanned :data:`Attribute` where a read's hold a payload.
#: A backend read hands each key's map out as a read-only view (see
#: :meth:`IndexStore._view`).
Payload = Any

#: One URI's attribute in stored form, as a compaction regroups it:
#: ``(values, piece, attr_bytes)`` — the values the store holds, their
#: :func:`~repro.indexing.checksums.attribute_piece` and billable bytes.
Attribute = Tuple[Tuple[AttrValue, ...], bytes, int]

#: Safety margin under the DynamoDB item limit for key bytes.
_ITEM_BUDGET = MAX_ITEM_BYTES - 4096
#: Billable bytes of the checksum attribute (its name, 8 hex digits).
_CHECKSUM_BYTES = attribute_size(CHECKSUM_ATTR, ("0" * 8,))
#: A posting's index key: the packer's grouping order.
_BY_KEY = attrgetter("key")
#: A posting's canonical piece.
_PIECE = attrgetter("piece")
#: An attribute head that adds nothing: the values' own tail.
_NO_HEAD = (b"", 0)
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
    """Backend-independent index storage interface.

    The class attributes below are what a store offers its readers;
    every store honours them, so callers read them directly (DESIGN
    §11, "The store contract").
    """

    backend_name: str = ""
    #: The shared read cache below this store, if any.
    cache: Optional[Any] = None
    #: Whether look-up planners should hand this store batched reads.
    coalesce_reads: bool = False
    #: Whether reads check each item's checksum.
    verify_reads: bool = False
    #: How items are addressed: "uuid", "attribute" or "content".
    range_key_mode: str = "uuid"
    #: The answer memo planners over this store replay from, if any.
    answer_memo: Optional[Any] = None
    #: The index epoch reads are cached under.
    epoch: int = 0
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

    def shard_tables(self, physical: str) -> List[str]:
        """The physical tables behind one logical table."""
        return [physical]

    @abc.abstractmethod
    def create_table(self, physical_name: str) -> None:
        """Create the physical table/domain (idempotence not required)."""

    def create_physical_table(self, shard_table: str) -> None:
        """Create one table already named by :meth:`shard_tables`."""
        self.create_table(shard_table)

    def write_entries(self, physical_name: str, entries: Entries,
                      ) -> Generator[Any, Any, WriteStats]:
        """Persist a batch (postings or entries): the backend's
        ``_pack_items`` maps it to items, :meth:`write_items` puts
        them; returns write stats."""
        return (yield from self.write_items(physical_name,
                                            self._pack_items(entries)))

    @abc.abstractmethod
    def write_items(self, physical_name: str, items: Sequence[Any],
                    ) -> Generator[Any, Any, WriteStats]:
        """Persist packed items, in order; returns write stats."""

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

    def storage_bytes(self, physical_names: Iterable[str],
                      ) -> Tuple[int, int, int]:
        """``(sr, ovh, s)`` with ``s(D, I) = sr + ovh`` (§7.1), each
        table's items summed once."""
        names = list(physical_names)
        raw, overhead = self.raw_bytes(names), self.overhead_bytes(names)
        return raw, overhead, raw + overhead

    def stored_bytes(self, physical_names: Iterable[str]) -> int:
        """``s(D, I)`` (§7.1)."""
        return self.storage_bytes(physical_names)[2]

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


def _canonical(hash_key: str, pieces: Iterable[bytes]) -> bytes:
    """The canonical form of the item holding exactly the postings
    whose pieces these are, in URI order, joined from them."""
    return key_prefix(hash_key) + b"".join(pieces)


def _in_order(pieces: Mapping[str, bytes]) -> List[bytes]:
    """Pieces by attribute name, in the canonical form's (sorted) order."""
    return [pieces[name] for name in sorted(pieces)]


class _Memo(dict):
    """``function(argument)`` by argument, each computed on first sight
    (:func:`attribute_head` by URI: one per URI of a scanned table, not
    one per posting)."""

    def __init__(self, function: Callable[[Any], Any]) -> None:
        super().__init__()
        self._function = function

    def __missing__(self, argument: Any) -> Any:
        value = self[argument] = self._function(argument)
        return value


#: A ledger frame's length field by length: a few thousand distinct
#: lengths, against one per posting hashed.
_LENGTH_FIELDS = _Memo(b"%d:".__mod__)


def _check_stamp(physical_name: str, item: DynamoItem, actual: str) -> None:
    """Raise unless the item's stamped checksum is ``actual``."""
    stamped = item.attributes[CHECKSUM_ATTR][0]
    if stamped != actual:
        raise IntegrityError(
            "checksum mismatch in {} at ({!r}, {!r}): "
            "stamped {} != computed {}".format(
                physical_name, item.hash_key, item.range_key,
                stamped, actual))


def frame_pieces(update: Callable[[bytes], Any], logical_table: str,
                 postings: Iterable[Tuple[str, bytes]]) -> None:
    """Stream ``(key, piece)`` pairs, in runs of one key, into a ledger
    hash: each piece under the table's name, a NUL and its key's prefix,
    framed as by :func:`~repro.indexing.checksums.batch_content_hash` —
    the one framing writer of :func:`batch_entries_hash` and of a
    compaction unit's ledger value."""
    prefix = logical_table.encode("utf-8") + b"\x00"
    key = head = None
    for posting_key, piece in postings:
        if posting_key != key:
            key = posting_key
            head = prefix + key_prefix(key)
        update(_LENGTH_FIELDS[len(head) + len(piece)])
        update(head)
        update(piece)


def batch_entries_hash(extracted: Mapping[str, Entries]) -> str:
    """Content hash of one loader batch's extracted entries.

    Hashes the encoded payloads (what actually lands in the store), per
    logical table in sorted order — the value the batch ledger records.
    Extraction is deterministic, so a redelivered batch always hashes
    identically; a mismatch in the ledger means a determinism bug, not
    a fault.  Each posting's form (table, key prefix, piece) streams
    into one hash through :func:`frame_pieces`.
    """
    digest = hashlib.sha256()
    for logical_table in sorted(extracted):
        postings = stored_postings(extracted[logical_table])
        frame_pieces(digest.update, logical_table,
                     zip(map(_BY_KEY, postings), map(_PIECE, postings)))
    return digest.hexdigest()


class DynamoIndexStore(IndexStore):
    """The §6 DynamoDB mapping."""

    backend_name = "dynamodb"

    def __init__(self, dynamodb: DynamoDB, seed: int = 0,
                 range_key_mode: str = "uuid") -> None:
        if range_key_mode not in ("uuid", "attribute", "content"):
            raise IndexingError(
                "range_key_mode must be 'uuid', 'attribute' or 'content', "
                "got {!r}".format(range_key_mode))
        self._db = dynamodb
        self._rng = random.Random(seed)
        self.range_key_mode = range_key_mode
        #: The item is held beside its form so its id stays its own.
        self._written: Dict[int, Tuple[DynamoItem, bytes]] = {}
        self._views = {}
        #: Each distinct hash key and value tuple written, held once.
        self._interned: Dict[Any, Any] = {}

    def take_written(self) -> Dict[int, Tuple[DynamoItem, bytes]]:
        """See :meth:`IndexStore.take_written`."""
        written, self._written = self._written, {}
        return written

    def _uuid(self) -> str:
        """A UUID range key ([20]); seeded for reproducible runs."""
        return uuid4_text(self._rng.getrandbits(128))

    def _finish_item(self, hash_key: str, attrs: Dict[str, Any],
                     attr_bytes: int, pieces: Optional[Sequence[bytes]],
                     uri_key: str = "") -> DynamoItem:
        """Close an item over ``attrs`` (URI → interned values, and in
        ``content`` mode the postings' pieces in URI order), under the
        mode's range-key discipline.

        ``uuid`` draws a fresh random key (§6); ``content`` derives the
        key from the content and stamps the checksum attribute, making
        the write idempotent and scrub-verifiable (one canonical form,
        joined from the postings' pieces, feeds both, and is recorded
        for the digest that scans the item back); ``attribute`` uses
        ``uri_key``.  The item is born with the size budgeted.
        """
        hash_key = self._interned.setdefault(hash_key, hash_key)
        mode = self.range_key_mode
        if mode == "uuid":
            return DynamoItem.sized(hash_key, self._uuid(), attrs, attr_bytes)
        if mode == "content":
            canonical = _canonical(hash_key, pieces)
            attrs[CHECKSUM_ATTR] = (checksum_of(canonical),)
            item = DynamoItem.sized(hash_key, range_key_of(canonical), attrs,
                                    attr_bytes + _CHECKSUM_BYTES)
            self._written[id(item)] = (item, canonical)
            return item
        return DynamoItem.sized(hash_key, uri_key, attrs, attr_bytes)

    def create_table(self, physical_name: str) -> None:
        """Create the physical table/domain."""
        self._db.create_table(physical_name, has_range_key=True)

    # -- writes -------------------------------------------------------------

    def _posting_items(self, posting: Posting) -> List[DynamoItem]:
        """Items for one posting alone, splitting an oversized payload."""
        key, uri, values = posting.key, posting.uri, posting.values
        intern = self._interned.setdefault
        value_bytes = posting.attr_bytes - value_size(uri)
        if value_bytes <= _ITEM_BUDGET:
            return [self._finish_item(key, {uri: intern(values, values)},
                                      posting.attr_bytes, [posting.piece],
                                      uri)]
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
        return [self._finish_item(key, {uri: intern(part.values, part.values)},
                                  part.attr_bytes, [part.piece],
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
        Each entry is encoded and sized once, here or by its sender,
        and each value is interned straight into its item's attributes.
        """
        content = self.range_key_mode == "content"
        if not all(map(Posting.__instancecheck__, entries)):
            entries = stored_postings(entries, content)
        if self.range_key_mode == "attribute":
            return [item for posting in entries
                    for item in self._posting_items(posting)]
        intern = self._interned.setdefault
        finish = self._finish_item
        items: List[DynamoItem] = []
        key = None
        attrs: Dict[str, Any] = {}
        pieces: Optional[Dict[str, bytes]] = {} if content else None
        size = 0
        # Stable, so a key's postings keep their order.
        for posting in sorted(entries, key=_BY_KEY):
            if posting.key != key:
                if attrs:
                    items.append(finish(key, attrs, size,
                                        pieces and _in_order(pieces)))
                    attrs, size = {}, 0
                    if content:
                        pieces = {}
                key = posting.key
            attr_bytes = posting.attr_bytes
            if size + attr_bytes > _ITEM_BUDGET:
                if attr_bytes > _ITEM_BUDGET:
                    # Oversized single posting: dedicated split items,
                    # ahead of the item its key holds open.
                    items.extend(self._posting_items(posting))
                    continue
                items.append(finish(key, attrs, size,
                                    pieces and _in_order(pieces)))
                attrs, size = {}, 0
                if content:
                    pieces = {}
            values = posting.values
            attrs[posting.uri] = intern(values, values)
            if content:
                pieces[posting.uri] = posting.piece
            size += attr_bytes
        if attrs:
            items.append(finish(key, attrs, size,
                                pieces and _in_order(pieces)))
        return items

    def _pack_key(self, key: str, uris: Sequence[str],
                  attributes: Sequence[Attribute]) -> List[DynamoItem]:
        """One key's items from its attributes in stored form, ``uris``
        ascending: when they fit one item, the item :meth:`_pack_items`
        closes over them, built at once; else they take the packer's
        own route (split and oversized postings) as postings."""
        values, pieces, sizes = zip(*attributes)
        size = sum(sizes)
        if size > _ITEM_BUDGET:
            return self._pack_items([
                Posting(key, uri, stored[0])
                for uri, stored in zip(uris, attributes)])
        intern = self._interned.setdefault
        return [self._finish_item(key, dict(zip(uris, map(intern, values,
                                                          values))),
                                  size, pieces)]

    def _carry(self, item: DynamoItem, attributes: Sequence[Attribute],
               ) -> bool:
        """Take a scanned item that :meth:`_regroup` found whole, its
        ``attributes`` in its order, to be written again as it stands:
        its canonical form is recorded as :meth:`_finish_item` records
        a packed item's.  Refused (False) unless its hash key and every
        values tuple are the objects this store interns — else an equal
        value would be held twice — and the key is packed instead."""
        intern = self._interned.setdefault
        key = item.hash_key
        values = [stored[0] for stored in attributes]
        if intern(key, key) is not key or not all(
                map(is_, map(intern, values, values), values)):
            return False
        self._written[id(item)] = (item, _canonical(
            key, [stored[1] for stored in attributes]))
        return True

    def write_items(self, physical_name: str, items: Sequence[DynamoItem],
                    ) -> Generator[Any, Any, WriteStats]:
        """Put items, :data:`BATCH_PUT_LIMIT` a request; returns write
        stats."""
        stats = WriteStats(puts=len(items), items=len(items))
        for start in range(0, len(items), BATCH_PUT_LIMIT):
            stats.payload_bytes += yield from self._db.batch_put(
                physical_name, items[start:start + BATCH_PUT_LIMIT])
            stats.batches += 1
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
    def _regroup(physical_name: str, items: Sequence[DynamoItem], kind: str,
                 ) -> Tuple[Dict[str, Dict[str, Attribute]],
                            Dict[str, DynamoItem]]:
        """:meth:`_merge_items` without leaving stored form, over a
        scanned table (the compaction fold's regroup step): key → URI →
        :data:`Attribute`, and key → the item that holds the key
        *whole*, which a fold may carry as it stands.

        An attribute's piece is its URI's head (encoded once per table,
        see :class:`_Memo`) and its values' tail (encoded once per
        distinct values tuple: a store interns them).  Joined per item,
        the pieces are the canonical form the stamped checksum is
        verified against: carrying bytes means vouching for them.  A
        URI's only sighting, in a checksummed item and already in
        merged form (nothing under a presence key, at most one blob,
        paths distinct), is kept as stored — only ``encode_ids`` ever
        wrote a blob under a checksum, so decode → encode would
        reproduce it.  A key with any other URI (a list split over
        items, a redelivered batch, repeated paths, no checksum) takes
        what :meth:`_merge_items` makes of it.  A key is held whole by
        the one item that holds it when that item is checksummed, in
        merged form and in the packer's order (URIs ascending, then the
        checksum): the very item the packer would close over its pieces.
        """
        by_key: Dict[str, Dict[str, Attribute]] = {}
        whole: Dict[str, DynamoItem] = {}
        again = set()
        heads = _Memo(attribute_head)
        tails: Dict[Tuple[AttrValue, ...], Tuple[bytes, int]] = {}
        get_tail = tails.get
        odd = set()  # values tuples not in merged form
        presence, paths = kind == "presence", kind == "paths"
        for item in items:
            key = item.hash_key
            attributes = item.attributes
            held: Dict[str, Attribute] = {}
            for name, values in attributes.items():
                if name != CHECKSUM_ATTR:
                    tail = get_tail(values)
                    if tail is None:
                        tail = tails[values] = attribute_piece(
                            "", values, _NO_HEAD)
                        if values and (presence or len(values) > 1 and (
                                not paths
                                or len(set(values)) != len(values))):
                            odd.add(values)
                    head, name_bytes = heads[name]
                    held[name] = (values, head + tail[0],
                                  name_bytes + tail[1])
            ordered = sorted(held)
            if CHECKSUM_ATTR in attributes:
                _check_stamp(physical_name, item, checksum_of(_canonical(
                    key, [held[name][1] for name in ordered])))
                if odd and not odd.isdisjoint(attributes.values()):
                    again.add(key)  # not in merged form
            else:
                again.add(key)  # no checksum vouches for it
            merged = by_key.setdefault(key, held)
            if merged is held:
                names = list(attributes)
                if ordered and names[-1] == CHECKSUM_ATTR and (
                        names[:-1] == ordered):
                    whole[key] = item
            else:  # the key's second item or later
                whole.pop(key, None)
                if not merged.keys().isdisjoint(held):
                    again.add(key)
                merged.update(held)
        for key in again:  # the whole key takes the decode route
            whole.pop(key, None)
            payloads = DynamoIndexStore._merge_items(
                [item for item in items if item.hash_key == key], kind)
            by_key[key] = rows = {}
            for uri, payload in payloads.items():
                values = ((encode_ids(payload),) if payload and kind == "ids"
                          else tuple(payload or ()))
                rows[uri] = (values, *attribute_piece(uri, values))
        return by_key, whole

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

    def _pack_items(self, entries: Entries) -> List[SimpleDBItem]:
        """Map a batch to items: a key's (URI, value) pairs, sharded at
        the per-item attribute limit."""
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
        return items

    def write_items(self, physical_name: str, items: Sequence[SimpleDBItem],
                    ) -> Generator[Any, Any, WriteStats]:
        """Put items, SimpleDB's batch limit a request; returns write
        stats."""
        stats = WriteStats(puts=len(items), items=len(items))
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
