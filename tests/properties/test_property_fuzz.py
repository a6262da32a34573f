"""Byte-level fuzzing: malformed input raises a typed error, never a
bare crash.

Every entry point that takes stored or fetched bytes — the model parse,
each strategy's extraction, the ID codec, the lazy ID block with its
column access, the manifest's epoch-record and live-head decoders, the
manifest replicator's snapshot digest, the scrubber's table inventory,
a compaction's pinned chain and the batch ledger's entries — may only
let a :class:`~repro.errors.ReproError` escape.
Inputs are raw bytes, and valid documents and ID blobs with bytes
flipped, cut and inserted; each test also replays the inputs that once
escaped untyped: an unknown encoding declaration (``LookupError``), a
document nested deeper than the recursion limit (``RecursionError``)
and an ID past the block's 64-bit columns (``OverflowError``).
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents, sorted_node_ids

from repro.cloud.dynamodb import DynamoItem
from repro.consistency.ledger import BatchLedger
from repro.consistency.manifest import DeltaRecord, EpochRecord, LiveHead
from repro.consistency.replication import ReplicatedManifest
from repro.consistency.scrubber import decode_inventory
from repro.errors import IntegrityError, ReproError
from repro.indexing.registry import ALL_STRATEGY_NAMES, strategy
from repro.mutations.compactor import decode_pinned_chain
from repro.xmldb.blocks import IDBlock
from repro.xmldb.encoding import decode_ids, encode_ids
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

BOGUS_ENCODING = b"<?xml version='1.0' encoding='bogus'?><a/>"
DEEP = b"<a>" * 5000 + b"x" + b"</a>" * 5000
#: One ID whose ten-byte ``pre`` varint is 2**63: it fits the codec's
#: varint bound but not the block's int64 column.
PRE_BEYOND_INT64 = b"\x01" + b"\x80" * 9 + b"\x01" + b"\x00\x01"

#: Declarations expat cannot decode, spelled as real documents do.
DECLARED = st.sampled_from(["bogus", "shift_jis", "utf-16", "utf-32",
                            "latin-1", "ascii", "cp1252", ""]).map(
    "<?xml version='1.0' encoding='{}'?>".format).map(str.encode)


@st.composite
def mangled(draw, valid):
    """A ``valid`` byte string with a few bytes flipped, cut, inserted."""
    data = bytearray(draw(valid))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(data)))
        edit = draw(st.sampled_from(["flip", "cut", "insert"]))
        if edit == "flip" and position < len(data):
            data[position] ^= 1 << draw(st.integers(0, 7))
        elif edit == "cut":
            del data[position:position + draw(st.integers(1, 8))]
        else:
            data[position:position] = draw(st.binary(min_size=1, max_size=4))
    return bytes(data)


XML_BYTES = st.one_of(
    st.binary(max_size=200),
    mangled(documents().map(serialize)),
    st.tuples(DECLARED, documents().map(serialize)).map(b"".join))
ID_BYTES = st.one_of(st.binary(max_size=64),
                     mangled(sorted_node_ids().map(encode_ids)))


#: A committed record's attributes, and a two-delta live head's.
EPOCH_ATTRS = EpochRecord(
    name="LUP", epoch=3, status="committed", strategy="LUP",
    tables={"lup": "idx-lup-lup-e3"}, ledger_table="ldg-lup-e3",
    batches=4, digest="9f2c", batch_size=8, shards=2).to_attributes()
LIVE_ATTRS = {
    "version": ("4",),
    "chain": (json.dumps([DeltaRecord(
        name="LUP", base_epoch=3, seq=seq, tables={"lup": "dlt-lup-s1"},
        tombstones=("gone.xml",), documents=2).to_dict()
        for seq in (1, 2)], sort_keys=True),)}


@st.composite
def damaged(draw, attrs):
    """``attrs`` with attributes dropped, emptied or their bytes mangled
    (a mangled value is stored as bytes, as a binary attribute is)."""
    result = dict(attrs)
    for attr in sorted(attrs):
        action = draw(st.sampled_from(["keep", "drop", "empty", "mangle"]))
        if action == "drop":
            del result[attr]
        elif action == "empty":
            result[attr] = ()
        elif action == "mangle":
            result[attr] = (draw(mangled(st.just(
                attrs[attr][0].encode("utf-8")))),)
    return result


def _typed_or_nothing(call, *args):
    try:
        return call(*args)
    except ReproError:
        return None


@given(XML_BYTES)
@example(BOGUS_ENCODING)
@example(DEEP)
@settings(max_examples=300, deadline=None)
def test_parse_document_raises_only_typed_errors(data):
    _typed_or_nothing(parse_document, data, "fuzz.xml")


@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
@given(data=XML_BYTES, include_words=st.booleans(), canonical=st.booleans())
@example(data=BOGUS_ENCODING, include_words=True, canonical=True)
@example(data=DEEP, include_words=True, canonical=False)
@settings(max_examples=100, deadline=None)
def test_extract_postings_raises_only_typed_errors(name, data,
                                                   include_words, canonical):
    indexing = strategy(name, include_words=include_words)
    _typed_or_nothing(indexing.extract_postings, data, "fuzz.xml", canonical)


@given(ID_BYTES)
@example(PRE_BEYOND_INT64)
@settings(max_examples=300, deadline=None)
def test_decode_ids_raises_only_typed_errors(data):
    _typed_or_nothing(decode_ids, data)


@given(ID_BYTES)
@example(PRE_BEYOND_INT64)
@settings(max_examples=300, deadline=None)
def test_id_block_raises_only_typed_errors(data):
    def columns(raw):
        block = IDBlock.from_encoded(raw)
        return block.pres, block.posts, block.depths, list(block)

    _typed_or_nothing(columns, data)


def _epoch_record(attrs):
    return EpochRecord.from_item("LUP", DynamoItem("LUP", None, attrs))


def _live_head(attrs):
    return LiveHead.from_item("LUP", DynamoItem("LUP#live", None, attrs))


@given(damaged(EPOCH_ATTRS))
@settings(max_examples=300, deadline=None)
def test_epoch_record_decoding_raises_only_typed_errors(attrs):
    _typed_or_nothing(_epoch_record, attrs)


@given(damaged(LIVE_ATTRS))
@settings(max_examples=300, deadline=None)
def test_live_head_decoding_raises_only_typed_errors(attrs):
    _typed_or_nothing(_live_head, attrs)


def test_manifest_decoders_read_back_what_was_stored():
    record = _epoch_record(EPOCH_ATTRS)
    assert record.to_attributes() == EPOCH_ATTRS
    head = _live_head(LIVE_ATTRS)
    assert (head.version, [delta.seq for delta in head.deltas]) == (4, [1, 2])


@pytest.mark.parametrize("decode, attrs, record", [
    (_epoch_record, {**EPOCH_ATTRS, "epoch": ("three",)}, "'LUP'"),
    (_epoch_record, {**EPOCH_ATTRS, "tables": ("{lup",)}, "'LUP'"),
    (_epoch_record, {attr: values for attr, values in EPOCH_ATTRS.items()
                     if attr != "ledger"}, "'LUP'"),
    (_live_head, {**LIVE_ATTRS, "version": ("v4",)}, "'LUP#live'"),
    (_live_head, {**LIVE_ATTRS, "chain": ("[{",)}, "'LUP#live'"),
    (_live_head, {"version": ("4",)}, "'LUP#live'"),
    (_live_head, {**LIVE_ATTRS, "chain": ('[{"seq": 1}]',)}, "'LUP#live'"),
], ids=["epoch-not-int", "tables-not-json", "ledger-missing",
        "version-not-int", "chain-not-json", "chain-missing",
        "delta-fields-missing"])
def test_a_damaged_manifest_record_is_named(decode, attrs, record):
    with pytest.raises(IntegrityError, match=record):
        decode(attrs)


def _snapshot_digest(attrs):
    """The replicator's signature of a snapshot holding one record with
    ``attrs``, or the typed error naming that record."""
    try:
        return ReplicatedManifest._digest([DynamoItem("LUP", None, attrs)])
    except IntegrityError as error:
        assert "'LUP'" in str(error)
        return None


@given(st.one_of(damaged(EPOCH_ATTRS), damaged(LIVE_ATTRS),
                 st.dictionaries(st.text(max_size=8), st.tuples(st.one_of(
                     st.binary(max_size=8), st.text(max_size=8),
                     st.integers())))))
@example({"status": (b"\xff\xfe",)})
@settings(max_examples=300, deadline=None)
def test_snapshot_digest_raises_only_integrity_errors(attrs):
    _snapshot_digest(attrs)


def test_snapshot_digest_reads_back_what_was_stored():
    assert json.loads(_snapshot_digest(EPOCH_ATTRS)) == [
        ["LUP", {attr: list(values) for attr, values in EPOCH_ATTRS.items()}]]


@pytest.mark.parametrize("attrs", [
    {**EPOCH_ATTRS, "status": (b"\xff\xfe",)}, {**LIVE_ATTRS, "chain": (5,)}],
    ids=["status-not-utf8", "chain-not-text"])
def test_a_damaged_snapshot_record_is_named(attrs):
    with pytest.raises(IntegrityError, match="'LUP'"):
        ReplicatedManifest._digest([DynamoItem("LUP", None, attrs)])


#: A table inventory (key → URIs) and a pinned chain, as stored.
INVENTORY = json.dumps({"name": ["a.xml", "b.xml"], "/site": ["a.xml"],
                        "gone": []}).encode("utf-8")
PIN = json.dumps([1, 2, 5])
INVENTORY_RECORD = "LUP/e1/lup.json"
PIN_RECORD = "LUP-e2-cmp-chain"


def _control_record(decode, record, data):
    """``decode(record, data)``, or the name-bearing typed error."""
    try:
        return decode(record, data)
    except IntegrityError as error:
        assert record in str(error)
        return None


@given(st.one_of(st.binary(max_size=64), mangled(st.just(INVENTORY))))
@example(b"\xff\xfe\x00{")
@example(b'{"k": 5}')
@example(b'{"k": [5]}')
@example(b"[" * 5000)
@settings(max_examples=300, deadline=None)
def test_inventory_decoding_raises_only_integrity_errors(data):
    _control_record(decode_inventory, INVENTORY_RECORD, data)


@given(st.one_of(st.text(max_size=32), mangled(st.just(
    PIN.encode("utf-8"))).map(lambda data: data.decode("latin-1"))))
@example('{"seq": 1}')
@example("[1, true]")
@example('["1"]')
@example("[1.5]")
@settings(max_examples=300, deadline=None)
def test_pinned_chain_decoding_raises_only_integrity_errors(data):
    _control_record(decode_pinned_chain, PIN_RECORD, data)


def test_control_records_read_back_what_was_stored():
    assert decode_inventory(INVENTORY_RECORD, INVENTORY) == json.loads(
        INVENTORY)
    assert decode_pinned_chain(PIN_RECORD, PIN) == [1, 2, 5]


@pytest.mark.parametrize("decode, record, data", [
    (decode_inventory, INVENTORY_RECORD, b"\xff{"),
    (decode_inventory, INVENTORY_RECORD, b'{"k": 5}'),
    (decode_pinned_chain, PIN_RECORD, "[1, 2"),
    (decode_pinned_chain, PIN_RECORD, '{"1": 2}'),
    (decode_pinned_chain, PIN_RECORD, '["1"]'),
], ids=["inventory-not-utf8", "inventory-not-lists", "pin-not-json",
        "pin-not-a-list", "pin-not-ints"])
def test_a_damaged_control_record_is_named(decode, record, data):
    with pytest.raises(IntegrityError, match=record):
        decode(record, data)


#: One ledger entry (batch id → content hash) as stored.
LEDGER_TABLE = "ldg-lup-e3"
LEDGER_BATCH = "LUP-e3-b0001"
LEDGER_ATTRS = {"hash": ("9f2c41d0",)}


class _OneEntryLedgerTable:
    """A DynamoDB stand-in whose ledger table holds one entry."""

    def __init__(self, attrs):
        self.item = DynamoItem(LEDGER_BATCH, None, attrs)

    def get(self, table, key):
        return [self.item]
        yield  # pragma: no cover - makes this a generator

    def scan(self, table):
        return [self.item]
        yield  # pragma: no cover - makes this a generator


def _finished(generator):
    """A generator that never yields, run to its return value."""
    with pytest.raises(StopIteration) as stop:
        next(generator)
    return stop.value.value


def _ledger_reads(attrs):
    """The entry as ``lookup`` and as ``entries`` read it, or the typed
    error naming the ledger table and the batch."""
    ledger = BatchLedger(_OneEntryLedgerTable(attrs), LEDGER_TABLE)
    try:
        return (_finished(ledger.lookup(LEDGER_BATCH)),
                _finished(ledger.entries()))
    except IntegrityError as error:
        assert "{}/{}".format(LEDGER_TABLE, LEDGER_BATCH) in str(error)
        return None


@given(st.one_of(damaged(LEDGER_ATTRS), st.dictionaries(
    st.just("hash"), st.tuples(st.one_of(st.binary(max_size=8),
                                         st.integers())))))
@example({"hash": (b"\xff\xfe",)})
@example({})
@example({"hash": ()})
@settings(max_examples=300, deadline=None)
def test_ledger_decoding_raises_only_integrity_errors(attrs):
    _ledger_reads(attrs)


def test_ledger_reads_back_what_was_stored():
    assert _ledger_reads(LEDGER_ATTRS) == (
        "9f2c41d0", {LEDGER_BATCH: "9f2c41d0"})


@pytest.mark.parametrize("attrs", [
    {"hash": (b"\xff\xfe",)}, {}, {"hash": ()}],
    ids=["hash-not-utf8", "hash-missing", "hash-empty"])
def test_a_damaged_ledger_entry_is_named(attrs):
    ledger = BatchLedger(_OneEntryLedgerTable(attrs), LEDGER_TABLE)
    for read in (ledger.lookup(LEDGER_BATCH), ledger.entries()):
        with pytest.raises(IntegrityError,
                           match="{}/{}".format(LEDGER_TABLE, LEDGER_BATCH)):
            next(read)


@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_bogus_encoding_raises_typed_from_every_strategy(name):
    with pytest.raises(ReproError):
        strategy(name).extract_postings(BOGUS_ENCODING, "enc.xml")


def test_deep_document_indexes():
    """5,000 nested elements and one text word: 5,001 identifiers."""
    postings, stats = strategy("2LUPI").extract_postings(DEEP, "deep.xml")
    assert stats.ids == 5001
    assert [p.key for p in postings["lui"]] == ["ea", "wx"]
