"""Epoch-versioned index publication.

An index *name* (e.g. ``"LUP"``) is a stable identity; each (re)build
of it is an *epoch* writing into fresh physical tables.  A DynamoDB
manifest table maps the name to its committed epoch:

- key ``<name>`` — the committed pointer: epoch number, the logical →
  physical table map, content digest, ledger table.  Queries resolve
  the index through this record;
- key ``<name>#pending`` — the build in progress (same shape, status
  ``pending``), letting ``resume`` find an interrupted build.

The flip from epoch *n* to *n+1* is one conditional put expecting the
currently-committed epoch attribute, so two racing committers cannot
both win and a reader always observes either the complete old record
or the complete new one — never a mixture (DynamoDB single-item writes
are atomic; the simulated :meth:`~repro.cloud.dynamodb.DynamoDB.put`
checks and stores without an intervening simulation event).

Live mutation (``repro.mutations``) adds a third key per index:

- key ``<name>#live`` — the *delta chain*: a monotonically versioned
  list of :class:`DeltaRecord` entries layered over the committed base
  epoch.  Every chain change (appending a freshly published delta,
  dropping deltas a compaction folded into a new base) is one
  conditional put expecting the current ``version`` attribute, giving
  delta flips the same lost-update protection as epoch flips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Generator, List, Mapping, Optional,
                    Tuple)

from repro.cloud.dynamodb import DynamoItem
from repro.errors import (BuildStateError, ConditionalCheckFailed,
                          IntegrityError, NoSuchTable)

#: The hash-only DynamoDB table holding committed/pending epoch records.
MANIFEST_TABLE = "index-manifest"

#: Conditional puts :meth:`Manifest.drop_compacted` tries before it
#: gives up on a head that keeps moving.
DROP_ATTEMPTS = 5

#: Key suffix under which a build-in-progress is recorded.
PENDING_SUFFIX = "#pending"

#: Key suffix under which an index's live delta chain is recorded.
LIVE_SUFFIX = "#live"

#: What decoding a damaged record can raise: a missing attribute or
#: field, a non-integer number, bytes or JSON that do not decode, JSON
#: of the wrong shape.
_DECODE_ERRORS = (KeyError, IndexError, TypeError, ValueError,
                  AttributeError, RecursionError)


def _as_text(value: Any) -> str:
    """One stored value (text, or UTF-8 bytes) as text."""
    return value if isinstance(value, str) else value.decode("utf-8")


def _text(attrs: Mapping[str, Tuple[Any, ...]], attr: str) -> str:
    """One stored attribute's first value, as text."""
    return _as_text(attrs[attr][0])


def _damaged(record: str, exc: Exception) -> IntegrityError:
    """The typed error for a control-plane record that does not decode."""
    return IntegrityError("record {!r} does not decode: {}: {}".format(
        record, type(exc).__name__, exc))


def decode_text(record: str, attrs: Mapping[str, Tuple[Any, ...]],
                attr: str) -> str:
    """One stored attribute of a control-plane record, as text; a value
    that is missing, empty or not UTF-8 raises
    :class:`~repro.errors.IntegrityError` naming ``record``."""
    try:
        return _text(attrs, attr)
    except _DECODE_ERRORS as exc:
        raise _damaged(record, exc) from exc


def decode_values(record: str, values: Tuple[Any, ...]) -> List[str]:
    """Every value of one stored attribute of a control-plane record, as
    text; a value that is not text or UTF-8 bytes raises
    :class:`~repro.errors.IntegrityError` naming ``record``."""
    try:
        return [_as_text(value) for value in values]
    except _DECODE_ERRORS as exc:
        raise _damaged(record, exc) from exc


def decode_json(record: str, data: Any, shape: Callable[[Any], bool]) -> Any:
    """A stored control-plane record's JSON (text or bytes), if ``shape``
    accepts it; else :class:`~repro.errors.IntegrityError` naming it."""
    try:
        value = json.loads(data)
        if not shape(value):
            raise ValueError("not the shape it is stored in")
    except (ValueError, RecursionError) as exc:
        raise _damaged(record, exc) from exc
    return value


@dataclass(frozen=True)
class DeltaRecord:
    """One published delta epoch layered over a committed base.

    A delta is a small immutable set of side tables (one per logical
    table the mutation touched) plus a tombstone set masking deleted
    URIs in every layer beneath it.  ``tables`` may be empty for a
    tombstone-only delta (pure deletes write no index entries).
    """

    name: str
    base_epoch: int
    seq: int
    tables: Dict[str, str]      # logical table -> physical delta table
    tombstones: Tuple[str, ...]
    documents: int
    ledger_table: str = ""
    digest: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form stored inside the live-head chain."""
        return {
            "name": self.name,
            "base_epoch": self.base_epoch,
            "seq": self.seq,
            "tables": self.tables,
            "tombstones": list(self.tombstones),
            "documents": self.documents,
            "ledger_table": self.ledger_table,
            "digest": self.digest,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "DeltaRecord":
        """Rebuild a delta record from its chain entry."""
        return DeltaRecord(
            name=data["name"],
            base_epoch=int(data["base_epoch"]),
            seq=int(data["seq"]),
            tables=dict(data["tables"]),
            tombstones=tuple(data["tombstones"]),
            documents=int(data["documents"]),
            ledger_table=data.get("ledger_table", ""),
            digest=data.get("digest", ""),
        )


@dataclass(frozen=True)
class LiveHead:
    """The versioned delta chain of one index (``<name>#live``)."""

    name: str
    version: int
    deltas: Tuple[DeltaRecord, ...]

    @property
    def next_seq(self) -> int:
        """Sequence number the next published delta takes."""
        return max((delta.seq for delta in self.deltas), default=0) + 1

    @staticmethod
    def from_item(name: str, item: DynamoItem) -> "LiveHead":
        """Rebuild ``name``'s chain from its stored ``<name>#live``
        item; a record that does not decode raises
        :class:`~repro.errors.IntegrityError` naming it."""
        try:
            attrs = item.attributes
            return LiveHead(
                name=name, version=int(_text(attrs, "version")),
                deltas=tuple(DeltaRecord.from_dict(entry) for entry
                             in json.loads(_text(attrs, "chain"))))
        except _DECODE_ERRORS as exc:
            raise _damaged(item.hash_key, exc) from exc


@dataclass(frozen=True)
class EpochRecord:
    """One manifest record: where an index epoch lives."""

    name: str
    epoch: int
    status: str                 # "committed" or "pending"
    strategy: str
    tables: Dict[str, str]      # logical table -> physical table
    ledger_table: str
    batches: int
    digest: str = ""
    #: Documents per batch; lets a scrub reconstruct the exact batch
    #: partition (0 when unknown, e.g. hand-built records).
    batch_size: int = 0
    #: Physical shard tables per logical table — the routing metadata
    #: scrub/repair needs to expand logical names (1 = unsharded, the
    #: default for records written before sharding existed).
    shards: int = 1

    def to_attributes(self) -> Dict[str, Tuple[str, ...]]:
        """Attribute map stored in the manifest item."""
        return {
            "epoch": (str(self.epoch),),
            "status": (self.status,),
            "strategy": (self.strategy,),
            "tables": (json.dumps(self.tables, sort_keys=True),),
            "ledger": (self.ledger_table,),
            "batches": (str(self.batches),),
            "digest": (self.digest,),
            "batch_size": (str(self.batch_size),),
            "shards": (str(self.shards),),
        }

    @staticmethod
    def from_item(name: str, item: DynamoItem) -> "EpochRecord":
        """Rebuild a record from its stored item; a record that does
        not decode raises :class:`~repro.errors.IntegrityError` naming
        it."""
        attrs = item.attributes
        try:
            return EpochRecord(
                name=name,
                epoch=int(_text(attrs, "epoch")),
                status=_text(attrs, "status"),
                strategy=_text(attrs, "strategy"),
                tables=dict(json.loads(_text(attrs, "tables"))),
                ledger_table=_text(attrs, "ledger"),
                batches=int(_text(attrs, "batches")),
                digest=_text(attrs, "digest"),
                batch_size=(int(_text(attrs, "batch_size"))
                            if "batch_size" in attrs else 0),
                shards=(int(_text(attrs, "shards"))
                        if "shards" in attrs else 1),
            )
        except _DECODE_ERRORS as exc:
            raise _damaged(item.hash_key, exc) from exc


class Manifest:
    """The manifest table and its commit protocol."""

    def __init__(self, dynamodb: Any) -> None:
        self._db = dynamodb
        self._table = MANIFEST_TABLE

    def ensure_table(self) -> None:
        """Create the manifest table if this deployment lacks one.

        Lazy so fault-free legacy builds never create it — keeping the
        clean path physically identical to earlier revisions.
        """
        if self._table not in self._db.table_names():
            self._db.create_table(self._table, has_range_key=False)

    @property
    def exists(self) -> bool:
        """Whether any build has ever used the manifest."""
        return self._table in self._db.table_names()

    # -- reads -------------------------------------------------------------

    def _read(self, key: str) -> Generator[Any, Any, Optional[DynamoItem]]:
        try:
            items = yield from self._db.get(self._table, key)
        except NoSuchTable:
            return None
        return items[0] if items else None

    def committed(self, name: str,
                  ) -> Generator[Any, Any, Optional[EpochRecord]]:
        """The committed record for ``name``, or None if never committed."""
        item = yield from self._read(name)
        return EpochRecord.from_item(name, item) if item else None

    def pending(self, name: str,
                ) -> Generator[Any, Any, Optional[EpochRecord]]:
        """The pending (in-progress) record for ``name``, if any."""
        item = yield from self._read(name + PENDING_SUFFIX)
        return EpochRecord.from_item(name, item) if item else None

    def list_records(self) -> List[EpochRecord]:
        """Every record (committed and pending), meter-free inspection."""
        if not self.exists:
            return []
        records = []
        for item in self._db.table(self._table).all_items():
            name = item.hash_key
            if name.endswith(LIVE_SUFFIX):
                continue  # delta chains are not epoch records
            if name.endswith(PENDING_SUFFIX):
                name = name[:-len(PENDING_SUFFIX)]
            records.append(EpochRecord.from_item(name, item))
        return records

    def live_head(self, name: str) -> Generator[Any, Any, LiveHead]:
        """The delta chain for ``name`` (version 0, empty when absent)."""
        item = yield from self._read(name + LIVE_SUFFIX)
        if item is None:
            return LiveHead(name=name, version=0, deltas=())
        return LiveHead.from_item(name, item)

    # -- writes ------------------------------------------------------------

    def put_pending(self, record: EpochRecord) -> Generator[Any, Any, None]:
        """Record a build in progress (idempotent overwrite)."""
        self.ensure_table()
        item = DynamoItem(hash_key=record.name + PENDING_SUFFIX,
                          range_key=None,
                          attributes=record.to_attributes())
        yield from self._db.put(self._table, item)

    def clear_pending(self, name: str) -> Generator[Any, Any, None]:
        """Drop the pending record once its epoch is committed."""
        yield from self._db.delete_item(self._table, name + PENDING_SUFFIX)

    def commit(self, record: EpochRecord,
               expected_epoch: Optional[int],
               ) -> Generator[Any, Any, EpochRecord]:
        """Atomically flip the committed pointer to ``record``.

        ``expected_epoch`` is the epoch the caller believes is currently
        committed (None for a first commit).  A racing commit that got
        there first makes the conditional put fail, surfacing as
        :class:`BuildStateError` — the losing committer must re-plan
        against the new epoch rather than clobber it.
        """
        self.ensure_table()
        committed = EpochRecord(
            name=record.name, epoch=record.epoch, status="committed",
            strategy=record.strategy, tables=record.tables,
            ledger_table=record.ledger_table, batches=record.batches,
            digest=record.digest, batch_size=record.batch_size,
            shards=record.shards)
        item = DynamoItem(hash_key=record.name, range_key=None,
                          attributes=committed.to_attributes())
        expected = {"epoch": (None if expected_epoch is None
                              else (str(expected_epoch),))}
        try:
            yield from self._db.put(self._table, item, expected=expected)
        except ConditionalCheckFailed as exc:
            raise BuildStateError(
                "commit of {} epoch {} lost the flip race: {}".format(
                    record.name, record.epoch, exc)) from exc
        return committed

    def put_live_head(self, head: LiveHead,
                      expected_version: int,
                      ) -> Generator[Any, Any, LiveHead]:
        """Atomically replace the delta chain (optimistic versioning).

        ``expected_version`` is the version the caller read (0 when the
        chain has never been written).  A concurrent writer makes the
        conditional put fail, surfacing as :class:`BuildStateError`;
        the loser must re-read the chain and retry against it.
        """
        self.ensure_table()
        item = DynamoItem(
            hash_key=head.name + LIVE_SUFFIX, range_key=None,
            attributes={
                "version": (str(head.version),),
                "chain": (json.dumps([delta.to_dict()
                                      for delta in head.deltas],
                                     sort_keys=True),),
            })
        expected = {"version": (None if expected_version == 0
                                else (str(expected_version),))}
        try:
            yield from self._db.put(self._table, item, expected=expected)
        except ConditionalCheckFailed as exc:
            raise BuildStateError(
                "live-head update of {} v{} lost the race: {}".format(
                    head.name, head.version, exc)) from exc
        return head

    def drop_compacted(self, name: str, base_epoch: int,
                       seqs: Tuple[int, ...],
                       ) -> Generator[Any, Any, LiveHead]:
        """Remove compacted deltas from the chain (bounded retry).

        Ingestion may append new deltas while a compaction runs, so the
        removal re-reads the head and retries its conditional put until
        it wins; deltas published after the compaction's snapshot stay
        in the chain, re-based onto ``base_epoch``.
        """
        failure: Optional[BuildStateError] = None
        for _ in range(DROP_ATTEMPTS):
            head = yield from self.live_head(name)
            survivors = tuple(
                replace(delta, base_epoch=base_epoch)
                for delta in head.deltas if delta.seq not in seqs)
            updated = LiveHead(name=name, version=head.version + 1,
                               deltas=survivors)
            try:
                result = yield from self.put_live_head(updated, head.version)
            except BuildStateError as exc:
                failure = exc
                continue
            return result
        raise BuildStateError(
            "could not drop compacted deltas of {} after {} attempts: "
            "{}".format(name, DROP_ATTEMPTS, failure))
