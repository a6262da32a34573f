"""Property-based tests: the one-allocation piece, the streamed ledger
hash and the range key set on the digest's hex text are byte-identical
to their field-by-field references.

Every stored range key, ``#crc`` stamp and batch-ledger entry is a
function of these bytes, so "faster" may not mean "different": over
``str`` and ``bytes`` values, zero, one and many of them, ``#``-prefixed
bookkeeping names and non-ASCII names and values, the production
functions must agree with ``tests/indexing/checksum_oracle.py``.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.indexing.checksum_oracle import (reference_attribute_piece,
                                            reference_batch_entries_hash)

from repro.indexing.checksums import (attribute_head, attribute_piece,
                                      range_key_of, uuid4_text)
from repro.indexing.entries import Posting
from repro.indexing.mapper import batch_entries_hash

#: Attribute names: document URIs (any text, non-ASCII included) and
#: ``#``-prefixed bookkeeping names.
names = st.one_of(st.text(max_size=8),
                  st.text(max_size=6).map(lambda text: "#" + text))
#: An attribute's values: label paths (text) or ID blobs (bytes).
values = st.lists(st.one_of(st.text(max_size=12), st.binary(max_size=12)),
                  max_size=5).map(tuple)
#: Postings, often several in a row under one key (one head per run).
postings = st.builds(Posting, st.one_of(st.sampled_from(("ename", "wcafé")),
                                        st.text(max_size=6)),
                     names, values)

#: A fixed batch over both value kinds, a bookkeeping name, an empty
#: posting and non-ASCII keys, names and values.
FIXED_BATCH = {
    "lup": [Posting("ename", "d1.xml", ("/epainting/ename",)),
            Posting("ename", "d2.xml", ("/a/ename", "/b/ename")),
            Posting("wcafé", "vangogh.xml", ("/epainting/ename/wcafé",))],
    "lui": [Posting("ename", "d1.xml", (b"\x01\x02\x03",)),
            Posting("ename", "#crc", ("db31d308",)),
            Posting("aid 1889-é", "végé.xml", ())],
}
#: Its ledger hash, as the field-by-field write path computed it.
FIXED_BATCH_HASH = (
    "52b2f99fe7e623a8b6cd77cf76fcebfa52cdd19fec40082d21e15e5d4c8e32dc")


@given(names, values)
@settings(max_examples=300, deadline=None)
def test_attribute_piece_matches_its_reference(name, attr_values):
    reference = reference_attribute_piece(name, attr_values)
    assert attribute_piece(name, attr_values) == reference
    # ... and so does the piece written under a head encoded beforehand.
    assert attribute_piece(name, attr_values,
                           attribute_head(name)) == reference


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_range_key_is_the_uuid4_of_the_digest(canonical):
    digest = hashlib.sha256(canonical).digest()
    assert range_key_of(canonical) == uuid4_text(
        int.from_bytes(digest[:16], "big"))


@given(st.dictionaries(st.text(max_size=4), st.lists(postings, max_size=8),
                       max_size=3))
@settings(max_examples=200, deadline=None)
def test_batch_entries_hash_matches_its_reference(extracted):
    assert batch_entries_hash(extracted) == \
        reference_batch_entries_hash(extracted)


def test_fixed_batch_ledger_hash():
    assert batch_entries_hash(FIXED_BATCH) == \
        reference_batch_entries_hash(FIXED_BATCH) == FIXED_BATCH_HASH
