"""Content hashing for index items and loader batches.

Two consumers, one canonical byte form:

- the **mapper** (``range_key_mode="content"``) derives each item's
  range key from the SHA-256 of its hash key and attribute content, and
  stamps a CRC-32 checksum attribute on the item.  Content-addressed
  keys make rewrites physically idempotent — re-running a loader batch
  stores byte-identical items under identical primary keys, which is
  what lets a resumed or redelivered build converge instead of
  duplicating postings;
- the **batch ledger and scrubber** hash whole entry batches and verify
  stored items against their stamped checksums.

Every other attribute name of an index item is a whole document URI;
the one bookkeeping name is :data:`CHECKSUM_ATTR`, which readers skip
and the warehouse refuses as a URI.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Mapping, Sequence, Tuple, Union

AttrValue = Union[str, bytes]

#: Attribute carrying the item's CRC-32 (hex) over its canonical bytes.
CHECKSUM_ATTR = "#crc"


def key_prefix(hash_key: str) -> bytes:
    """The canonical form's leading field (the length counts the key's
    characters: every stored range key and checksum depends on it)."""
    return b"k%d:%b" % (len(hash_key), hash_key.encode("utf-8"))


def attribute_piece(name: str, values: Sequence[AttrValue],
                    ) -> Tuple[bytes, int]:
    """One attribute's *piece* of the canonical form, ``a<len>:<name>``
    then ``v<len>:<value>`` per value, and its billable bytes
    (:func:`repro.cloud.dynamodb.attribute_size`), both from one utf-8
    encode per string.  The checksum attribute has an empty piece: the
    form is stable under stamping it.  The
    piece is allocated once: one format for a single value (a path, an
    ID blob), one join for any other count."""
    encoded = name.encode()
    if len(values) == 1:
        raw = values[0]
        raw = raw if isinstance(raw, bytes) else raw.encode()
        piece = b"a%d:%bv%d:%b" % (len(encoded), encoded, len(raw), raw)
        size = len(encoded) + len(raw)
    else:
        raws = [value if isinstance(value, bytes) else value.encode()
                for value in values]
        piece = b"".join([b"a%d:%b" % (len(encoded), encoded)]
                         + [b"v%d:%b" % (len(raw), raw) for raw in raws])
        size = len(encoded) + sum(map(len, raws))
    return (b"" if name == CHECKSUM_ATTR else piece), size


def canonical_item_bytes(hash_key: str,
                         attributes: Mapping[str, Tuple[AttrValue, ...]],
                         ) -> bytes:
    """Canonical byte form of an item's index content.

    The key prefix, then one :func:`attribute_piece` per attribute in
    sorted name order (nothing for the checksum attribute), so the form
    is stable under dict ordering.  Length-prefixed fields keep the
    encoding injective (no concatenation ambiguity).
    """
    return key_prefix(hash_key) + b"".join(
        [attribute_piece(name, attributes[name])[0]
         for name in sorted(attributes)])


def checksum_of(canonical: bytes) -> str:
    """CRC-32 (8 hex digits) of one canonical byte form."""
    return "{:08x}".format(zlib.crc32(canonical) & 0xFFFFFFFF)


_UUID4_CLEAR = ~((0xC000 << 48) | (0xF000 << 64))
_UUID4_SET = (0x8000 << 48) | (4 << 76)


def uuid4_text(value: int) -> str:
    """``str(uuid.UUID(int=value, version=4))`` for a 128-bit ``value``,
    without building the object — every item of an index draws one."""
    text = "%032x" % (value & _UUID4_CLEAR | _UUID4_SET)
    return "%s-%s-%s-%s-%s" % (text[:8], text[8:12], text[12:16],
                               text[16:20], text[20:])


def range_key_of(canonical: bytes) -> str:
    """UUID-shaped range key (SHA-256) of one canonical byte form."""
    digest = hashlib.sha256(canonical).digest()
    return uuid4_text(int.from_bytes(digest[:16], "big"))


def item_checksum(hash_key: str,
                  attributes: Mapping[str, Tuple[AttrValue, ...]]) -> str:
    """CRC-32 (8 hex digits) of the item's canonical bytes."""
    return checksum_of(canonical_item_bytes(hash_key, attributes))


def batch_content_hash(canonical_forms: Sequence[bytes]) -> str:
    """SHA-256 (hex) over a batch's canonical item forms, order-sensitive.

    The ledger records this per batch; a redelivery that would produce
    different content (a determinism bug) is caught by comparing hashes.
    """
    digest = hashlib.sha256()
    for form in canonical_forms:
        digest.update(b"%d:" % len(form))
        digest.update(form)
    return digest.hexdigest()
