"""Byte-level fuzzing: malformed input raises a typed error, never a
bare crash.

Every entry point that takes stored or fetched bytes — the model parse,
each strategy's extraction, the ID codec and the lazy ID block with its
column access — may only let a :class:`~repro.errors.ReproError` escape.
Inputs are raw bytes, and valid documents and ID blobs with bytes
flipped, cut and inserted; each test also replays the inputs that once
escaped untyped: an unknown encoding declaration (``LookupError``), a
document nested deeper than the recursion limit (``RecursionError``)
and an ID past the block's 64-bit columns (``OverflowError``).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents, sorted_node_ids

from repro.errors import ReproError
from repro.indexing.registry import ALL_STRATEGY_NAMES, strategy
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


@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_bogus_encoding_raises_typed_from_every_strategy(name):
    with pytest.raises(ReproError):
        strategy(name).extract_postings(BOGUS_ENCODING, "enc.xml")


def test_deep_document_indexes():
    """5,000 nested elements and one text word: 5,001 identifiers."""
    postings, stats = strategy("2LUPI").extract_postings(DEEP, "deep.xml")
    assert stats.ids == 5001
    assert [p.key for p in postings["lui"]] == ["ea", "wx"]
