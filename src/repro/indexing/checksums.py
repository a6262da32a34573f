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
from typing import Mapping, Optional, Sequence, Tuple, Union

AttrValue = Union[str, bytes]

#: Attribute carrying the item's CRC-32 (hex) over its canonical bytes.
CHECKSUM_ATTR = "#crc"


def key_prefix(hash_key: str) -> bytes:
    """The canonical form's leading field (the length counts the key's
    characters: every stored range key and checksum depends on it)."""
    return b"k%d:%b" % (len(hash_key), hash_key.encode("utf-8"))


def attribute_head(name: str) -> Tuple[bytes, int]:
    """An attribute piece's leading field, ``a<len>:<name>``, and the
    name's billable bytes: one utf-8 encode, which a caller writing
    many pieces under one name (a scanned table's URI) does once."""
    encoded = name.encode()
    return b"a%d:%b" % (len(encoded), encoded), len(encoded)


def attribute_piece(name: str, values: Sequence[AttrValue],
                    head: Optional[Tuple[bytes, int]] = None,
                    ) -> Tuple[bytes, int]:
    """One attribute's *piece* of the canonical form, ``a<len>:<name>``
    then ``v<len>:<value>`` per value, and its billable bytes
    (:func:`repro.cloud.dynamodb.attribute_size`), both from one utf-8
    encode per string (``head``, the name's :func:`attribute_head`,
    when the caller holds it).  The checksum attribute has an empty
    piece: the form is stable under stamping it.  The piece is
    allocated once: one format for a single value (a path, an ID
    blob), one join for any other count."""
    prefix, size = head or attribute_head(name)
    if len(values) == 1:
        raw = values[0]
        raw = raw if isinstance(raw, bytes) else raw.encode()
        piece = b"%bv%d:%b" % (prefix, len(raw), raw)
        size += len(raw)
    else:
        raws = [value if isinstance(value, bytes) else value.encode()
                for value in values]
        piece = b"".join([prefix]
                         + [b"v%d:%b" % (len(raw), raw) for raw in raws])
        size += sum(map(len, raws))
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
    return "%08x" % zlib.crc32(canonical)


_UUID4_CLEAR = ~((0xC000 << 48) | (0xF000 << 64))
_UUID4_SET = (0x8000 << 48) | (4 << 76)


def uuid4_text(value: int) -> str:
    """``str(uuid.UUID(int=value, version=4))`` for a 128-bit ``value``,
    without building the object — every item of an index draws one."""
    text = "%032x" % (value & _UUID4_CLEAR | _UUID4_SET)
    return f"{text[:8]}-{text[8:12]}-{text[12:16]}-{text[16:20]}-{text[20:]}"


#: The UUID variant digit (``10xx``) that :func:`uuid4_text` makes of
#: each hex digit in its position.
_VARIANT_DIGIT = {digit: "89ab"[int(digit, 16) & 3]
                  for digit in "0123456789abcdef"}


def range_key_of(canonical: bytes) -> str:
    """UUID-shaped range key (SHA-256) of one canonical byte form:
    :func:`uuid4_text` of the digest's first 16 bytes, set straight on
    its hex text (version digit ``4``, variant digit ``8``-``b``)."""
    text = hashlib.sha256(canonical).hexdigest()
    return "%s-%s-4%s-%s%s-%s" % (text[:8], text[8:12], text[13:16],
                                  _VARIANT_DIGIT[text[16]], text[17:20],
                                  text[20:32])


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
