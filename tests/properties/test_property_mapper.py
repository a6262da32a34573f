"""Property-based tests: index stores round-trip arbitrary entries.

Whatever a strategy extracts, writing it through either physical
mapping (DynamoDB items with UUID range keys, SimpleDB sharded text
items) and reading it back must reproduce the payload exactly — paths
in order, IDs sorted — across batch boundaries and item splits.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.mutations.fold_oracle import reference_merge_items
from tests.properties.strategies import sorted_node_ids

from repro.cloud import CloudProvider
from repro.cloud.dynamodb import DynamoItem, attribute_size
from repro.indexing.checksums import (CHECKSUM_ATTR, batch_content_hash,
                                      canonical_item_bytes, item_checksum,
                                      key_prefix, range_key_of)
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import (DynamoIndexStore, SimpleDBIndexStore,
                                   batch_entries_hash, stored_postings)
from repro.xmldb.encoding import decode_ids, encode_ids
from repro.xmldb.ids import NodeID

keys = st.sampled_from(["ea", "eb", "aid", "wgold", "ename"])
uris = st.sampled_from(["d1.xml", "d2.xml", "d3.xml"])
paths = st.lists(
    st.sampled_from(["/ea", "/ea/eb", "/ea/eb/ec", "/ea/aid"]),
    min_size=1, max_size=4, unique=True)


@st.composite
def entries(draw):
    kind = draw(st.sampled_from(["presence", "paths", "ids"]))
    key = draw(keys)
    uri = draw(uris)
    if kind == "presence":
        return IndexEntry(key=key, uri=uri)
    if kind == "paths":
        return IndexEntry(key=key, uri=uri, paths=tuple(draw(paths)))
    ids = draw(sorted_node_ids(max_size=12))
    if not ids:
        return IndexEntry(key=key, uri=uri)
    return IndexEntry(key=key, uri=uri, ids=tuple(ids))


def _unique_per_key_uri(entry_list):
    seen = set()
    out = []
    for entry in entry_list:
        if (entry.key, entry.uri) not in seen:
            seen.add((entry.key, entry.uri))
            out.append(entry)
    return out


def _expected(entry_list):
    expected = {}
    for entry in entry_list:
        if entry.kind == "presence":
            expected[(entry.key, entry.uri)] = None
        elif entry.kind == "paths":
            expected[(entry.key, entry.uri)] = tuple(entry.paths)
        else:
            expected[(entry.key, entry.uri)] = list(entry.ids)
    return expected


def _round_trip(store_factory, entry_list):
    cloud = CloudProvider()
    store = store_factory(cloud)
    store.create_table("t")

    def write():
        yield from store.write_entries("t", entry_list)
    cloud.env.run_process(write())

    expected = _expected(entry_list)
    for (key, uri), payload in expected.items():
        kind = ("presence" if payload is None
                else "paths" if isinstance(payload, tuple) else "ids")

        def read(key=key, kind=kind):
            return (yield from store.read_key("t", key, kind))
        payloads, _ = cloud.env.run_process(read())
        assert uri in payloads, (key, uri)
        if kind == "presence":
            assert payloads[uri] is None
        else:
            assert payloads[uri] == payload


@given(st.lists(entries(), min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_dynamo_store_round_trip(entry_list):
    # One payload kind per key per run (tables hold one kind in the
    # real system); also dedupe (key, uri) pairs as the loader does.
    filtered = _unique_per_key_uri(entry_list)
    by_key_kind = {}
    kept = []
    for entry in filtered:
        if by_key_kind.setdefault(entry.key, entry.kind) == entry.kind:
            kept.append(entry)
    _round_trip(lambda cloud: DynamoIndexStore(cloud.dynamodb, seed=1),
                kept)


@given(st.lists(entries(), min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_simpledb_store_round_trip(entry_list):
    filtered = _unique_per_key_uri(entry_list)
    by_key_kind = {}
    kept = []
    for entry in filtered:
        if by_key_kind.setdefault(entry.key, entry.kind) == entry.kind:
            kept.append(entry)
    _round_trip(lambda cloud: SimpleDBIndexStore(cloud.simpledb, seed=1),
                kept)


def _size_from_scratch(item):
    """An item's billable size recomputed from its fields alone."""
    size = len(item.hash_key.encode("utf-8"))
    if item.range_key is not None:
        size += len(item.range_key.encode("utf-8"))
    for name, values in item.attributes.items():
        size += len(name.encode("utf-8"))
        for value in values:
            size += len(value if isinstance(value, bytes)
                        else value.encode("utf-8"))
    return size


@st.composite
def oversized_entries(draw):
    """An entry whose payload alone overflows one item, so it splits."""
    key = draw(keys)
    uri = draw(st.sampled_from(["big1.xml", "bïg2.xml"]))
    if draw(st.booleans()):
        count = draw(st.integers(13000, 16000))
        return IndexEntry(key=key, uri=uri, ids=tuple(
            NodeID(1 + 3 * i, 70000 + i, 1 + i % 40) for i in range(count)))
    stem = "/ea" + "/eb" * draw(st.integers(300, 400))
    return IndexEntry(key=key, uri=uri, paths=tuple(
        "{}/e{}".format(stem, i) for i in range(80)))


@given(st.lists(entries(), min_size=1, max_size=10),
       st.lists(oversized_entries(), max_size=2),
       st.sampled_from(["uuid", "attribute", "content"]),
       st.integers(0, 64), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_items_are_born_with_their_size(small, big, mode, byte_index, bit):
    cloud = CloudProvider()
    store = DynamoIndexStore(cloud.dynamodb, seed=3, range_key_mode=mode)
    store.create_table("t")
    batch = _unique_per_key_uri(small + big)
    items = store._pack_items(batch)
    for entry in batch:
        if entry.uri.startswith("b"):  # an oversized one: it split
            assert sum(1 for item in items if item.hash_key == entry.key
                       and entry.uri in item.attributes) >= 2
    for item in items:
        assert "_size_bytes" in vars(item)  # born sized, not sized later
        assert item.size_bytes == _size_from_scratch(item)
        if mode == "content":
            assert CHECKSUM_ATTR in item.attributes
        # A changed copy is a new item and sizes itself afresh.
        moved = dataclasses.replace(item, hash_key=item.hash_key + "é")
        assert "_size_bytes" not in vars(moved)
        assert moved.size_bytes == _size_from_scratch(moved)

    def write():
        stats = yield from store.write_entries("t", batch)
        return stats
    stats = cloud.env.run_process(write())
    table = cloud.dynamodb.table("t")
    stored = table.all_items()
    assert stats.payload_bytes == sum(map(_size_from_scratch, items))
    assert table.raw_bytes() == sum(map(_size_from_scratch, stored))
    # Damage replaces the item; the replacement is sized from scratch.
    victim = stored[byte_index % len(stored)]
    for attr in victim.attributes:
        cloud.dynamodb.corrupt_attribute(
            "t", victim.hash_key, victim.range_key, attr,
            byte_index=byte_index, bit=bit)
    assert table.raw_bytes() == sum(map(_size_from_scratch,
                                        table.all_items()))


@given(st.lists(entries(), min_size=1, max_size=10),
       st.lists(oversized_entries(), max_size=1),
       st.sampled_from(["uuid", "attribute", "content"]))
@settings(max_examples=40, deadline=None)
def test_postings_pack_and_hash_like_their_entries(small, big, mode):
    """The stored form is a shortcut, not a second format: sizes, items,
    range keys, checksums and ledger hashes are those of the entries,
    and those the whole-item canonical form gives."""
    batch = _unique_per_key_uri(small + big)
    postings = stored_postings(batch, mode == "content")
    assert stored_postings(postings) == postings  # they pass through
    for entry, posting in zip(batch, postings):
        assert (posting.key, posting.uri) == (entry.key, entry.uri)
        assert posting.attr_bytes == attribute_size(posting.uri,
                                                    posting.values)
        if mode == "content":
            assert key_prefix(posting.key) + posting.piece == \
                canonical_item_bytes(posting.key,
                                     {posting.uri: posting.values})
        else:
            assert posting.piece is None
    packed = [DynamoIndexStore(CloudProvider().dynamodb, seed=5,
                               range_key_mode=mode)._pack_items(shape)
              for shape in (batch, postings)]
    assert packed[0] == packed[1]
    assert ([item.size_bytes for item in packed[0]]
            == [_size_from_scratch(item) for item in packed[1]])
    if mode == "content":
        for item in packed[1]:
            assert item.attributes[CHECKSUM_ATTR] == (
                item_checksum(item.hash_key, item.attributes),)
            assert item.range_key == range_key_of(canonical_item_bytes(
                item.hash_key, item.attributes))
        assert (batch_entries_hash({"t": batch})
                == batch_entries_hash({"t": postings})
                == batch_content_hash([
                    b"t\x00" + canonical_item_bytes(
                        posting.key, {posting.uri: posting.values})
                    for posting in postings]))


#: A URI may hold ``#`` anywhere, even first: only ``#crc`` is taken.
hashed_uris = st.sampled_from(["d1.xml", "d2.xml", "d#1.xml",
                               "d1.xml#0", "#d2.xml"])


@st.composite
def stored_items(draw):
    """One key's items as a store may hold them: mostly one merged-form
    attribute per URI, sometimes a URI holding ``#``, a URI repeated
    across items, two blobs, repeated paths or a checksum attribute."""
    kind = draw(st.sampled_from(["presence", "paths", "ids"]))
    items = []
    for serial in range(draw(st.integers(min_value=1, max_value=3))):
        attributes = {}
        for uri in draw(st.lists(hashed_uris, max_size=3, unique=True)):
            if kind == "presence":
                values = ()
            elif kind == "paths":
                values = tuple(draw(paths))
                if draw(st.integers(0, 5)) == 0:
                    values += values[:1]
            else:  # one node per ``pre``, as in a document
                values = tuple(
                    encode_ids([NodeID(pre, 2 * pre, 1 + pre % 5)
                                for pre in sorted(draw(st.lists(
                                    st.integers(1, 40), max_size=6,
                                    unique=True)))])
                    for _ in range(draw(st.sampled_from([1, 1, 1, 1, 2]))))
            attributes[uri] = values
        if draw(st.booleans()):
            attributes[CHECKSUM_ATTR] = (item_checksum("ea", attributes),)
        items.append(DynamoItem("ea", str(serial), attributes))
    return kind, items


@given(stored_items())
@settings(max_examples=200, deadline=None)
def test_merge_items_equals_the_reference_merge(case):
    """A key's items decode to the row read path's reference payloads,
    in the same URI order, every attribute name but ``#crc`` whole."""
    kind, items = case
    merged = DynamoIndexStore._merge_items(items, kind)
    reference = reference_merge_items(items, kind)
    assert list(merged) == list(reference)
    for uri, payload in merged.items():
        assert payload == reference[uri], uri


@given(stored_items())
@settings(max_examples=200, deadline=None)
def test_regroup_equals_the_fold_oracle(case):
    """Carried or re-merged, the compaction fold's regroup holds the
    postings of the fold oracle's payloads, in the same URI order."""
    kind, items = case
    regrouped = DynamoIndexStore._stored_postings("t", items, kind)["ea"]
    reference = reference_merge_items(items, kind)
    assert list(regrouped) == list(reference)
    for uri, posting in regrouped.items():
        values = posting.values
        if kind == "ids":
            values = decode_ids(values[0]) if values else []
        assert values == (reference[uri] if kind != "presence" else ()), uri
