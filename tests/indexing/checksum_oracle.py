"""The canonical piece and the batch ledger hash, kept as the tests'
reference.

These are the forms the write path built before a piece became one
allocation and the ledger hash a stream: ``attribute_piece`` appends
one ``v<len>:<value>`` field at a time (copying the piece so far each
time), and ``batch_entries_hash`` joins each posting's whole form —
table, key prefix, piece — before hashing the list of them.  The
production versions must produce the same bytes and the same hex
digest (``test_property_checksums``).
"""

from repro.indexing.checksums import (CHECKSUM_ATTR, batch_content_hash,
                                      key_prefix)
from repro.indexing.mapper import stored_postings


def reference_attribute_piece(name, values):
    """One attribute's piece of the canonical form and its billable
    bytes, field by field."""
    encoded = name.encode()
    size = len(encoded)
    piece = b"a%d:%b" % (size, encoded)
    for value in values:
        raw = value if isinstance(value, bytes) else value.encode()
        piece += b"v%d:%b" % (len(raw), raw)
        size += len(raw)
    return (b"" if name == CHECKSUM_ATTR else piece), size


def reference_batch_entries_hash(extracted):
    """The ledger hash over every posting's joined form, with each
    piece rebuilt by :func:`reference_attribute_piece`."""
    forms = []
    for logical_table in sorted(extracted):
        prefix = logical_table.encode("utf-8") + b"\x00"
        key = head = None
        for posting in stored_postings(extracted[logical_table]):
            if posting.key != key:
                key = posting.key
                head = prefix + key_prefix(key)
            forms.append(head + reference_attribute_piece(
                posting.uri, posting.values)[0])
    return batch_content_hash(forms)
