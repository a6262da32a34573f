"""Property-based tests: the structural-ID codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import sorted_node_ids

from repro.errors import EncodingError
from repro.xmldb.encoding import (decode_ids, decode_ids_text, encode_ids,
                                  encode_ids_text)
from repro.xmldb.ids import NodeID


@given(sorted_node_ids())
@settings(max_examples=100)
def test_binary_round_trip(ids):
    assert decode_ids(encode_ids(ids)) == ids


@given(sorted_node_ids())
@settings(max_examples=100)
def test_text_round_trip(ids):
    assert decode_ids_text(encode_ids_text(ids)) == ids


@given(sorted_node_ids(max_size=50))
@settings(max_examples=60)
def test_binary_never_larger_than_text(ids):
    """The §8.2 compression claim: binary beats the textual form for
    any non-trivial list."""
    binary = len(encode_ids(ids))
    text = len(encode_ids_text(ids).encode("utf-8"))
    if len(ids) >= 2:
        assert binary < text


@given(sorted_node_ids())
@settings(max_examples=60)
def test_encoding_deterministic(ids):
    assert encode_ids(ids) == encode_ids(list(ids))


@given(sorted_node_ids(max_size=15), sorted_node_ids(max_size=15))
@settings(max_examples=60)
def test_distinct_lists_encode_distinctly(left, right):
    if left != right:
        assert encode_ids(left) != encode_ids(right)


def _reference_varint(value, out):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _reference_encode(ids):
    """The textbook writer: one generic varint loop per number."""
    out = bytearray()
    _reference_varint(len(ids), out)
    previous = 0
    for node_id in ids:
        for value in (node_id.pre - previous, node_id.post, node_id.depth):
            _reference_varint(value, out)
        previous = node_id.pre
    return bytes(out)


#: Numbers around the one-/two-/three-byte varint boundaries.
_edges = st.sampled_from([0, 1, 126, 127, 128, 129, 255, 256, 16382, 16383,
                          16384, 16385, 2 ** 21 - 1, 2 ** 21, 2 ** 40])


@given(st.lists(st.tuples(_edges.filter(bool), _edges, _edges),
                max_size=12))
@settings(max_examples=200)
def test_inline_varints_agree_with_the_reference_writer(triples):
    ids, pre = [], 0
    for delta, post, depth in triples:
        pre += delta
        ids.append(NodeID(pre, post, depth))
    encoded = encode_ids(tuple(ids))
    assert encoded == _reference_encode(ids)
    assert decode_ids(encoded) == ids


@given(sorted_node_ids(max_size=8), st.data())
@settings(max_examples=100)
def test_unsorted_or_duplicate_pre_is_refused(ids, data):
    if len(ids) < 2:
        ids = [NodeID(5, 1, 1), NodeID(9, 2, 1)]
    position = data.draw(st.integers(1, len(ids) - 1))
    earlier = ids[data.draw(st.integers(0, position - 1))]
    # A later slot repeats or precedes an earlier pre.
    broken = list(ids)
    broken[position] = NodeID(
        earlier.pre - data.draw(st.integers(0, earlier.pre)), 0, 1)
    with pytest.raises(EncodingError):
        encode_ids(broken)


def test_negative_components_are_refused():
    for bad in (NodeID(3, -1, 1), NodeID(3, 1, -1)):
        with pytest.raises(EncodingError):
            encode_ids([bad])
