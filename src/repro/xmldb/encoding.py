"""Compact encodings for sorted structural-ID lists.

The LUI strategy stores, per index key and document, the concatenation
of the node's structural identifiers *already sorted by pre* (§5.3).
DynamoDB accepts binary values, which the paper exploits: "we exploit
the fact that DynamoDB allows storing arbitrary binary objects, to store
compressed (encoded) sets of IDs in a single DynamoDB value" (§8.2) —
and §8.4 credits a good part of the DynamoDB-vs-SimpleDB win to exactly
this.  SimpleDB only stores text, so the [8] baseline uses the textual
form.

Two codecs:

- :func:`encode_ids` / :func:`decode_ids` — binary: a varint count, then
  per ID a varint *delta* on ``pre`` (exploiting sortedness) and varints
  for ``post`` and ``depth``;
- :func:`encode_ids_text` / :func:`decode_ids_text` — the paper's
  display form ``(3, 3, 2)(6, 8, 3)``, used for SimpleDB.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import EncodingError
from repro.xmldb.blocks import IDBlock
from repro.xmldb.ids import NodeID


def _write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise EncodingError("varints are unsigned, got {}".format(value))
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise EncodingError("varint too long")


def encode_ids(ids: Union[IDBlock, Sequence[NodeID]]) -> bytes:
    """Encode a pre-sorted ID list (or block) to compact bytes.

    Raises :class:`~repro.errors.EncodingError` if the list is not
    strictly sorted by ``pre`` — sortedness is the LUI invariant that
    lets the twig join skip its sort phase.  A block encodes from its
    columns to the same bytes as its ``NodeID`` list.
    """
    if isinstance(ids, IDBlock):
        return encode_id_rows(zip(ids.pres, ids.posts, ids.depths), len(ids))
    return encode_id_rows(ids, len(ids))


def encode_id_rows(rows: Iterable[Tuple[int, int, int]], count: int) -> bytes:
    """:func:`encode_ids` of ``count`` (pre, post, depth) rows: the one
    varint loop behind a list, a block and an extraction's columns."""
    out = bytearray()
    _write_varint(count, out)
    append = out.append
    previous_pre = 0
    for row in rows:
        pre, post, depth = row
        delta = pre - previous_pre
        if delta <= 0:
            raise EncodingError(
                "IDs must be strictly sorted by pre; got {} after pre={}".format(
                    row, previous_pre))
        previous_pre = pre
        for value in (delta, post, depth):
            # One- and two-byte varints (all but a few of them) inline.
            if 0 <= value < 0x80:
                append(value)
            elif 0x80 <= value < 0x4000:
                append(value & 0x7F | 0x80)
                append(value >> 7)
            else:
                _write_varint(value, out)
    return bytes(out)


def decode_ids_block(data: bytes):
    """Decode bytes produced by :func:`encode_ids` to a columnar block.

    Returns a lazy :class:`~repro.xmldb.blocks.IDBlock`: only the count
    varint is read now, the (pre, post, depth) columns inflate on first
    access.  This is the columnar engine's fast path from index bytes
    to join input — no NodeIDs are materialised.
    """
    return IDBlock.from_encoded(data)


def decode_ids(data: bytes) -> List[NodeID]:
    """Decode bytes produced by :func:`encode_ids`."""
    count, pos = _read_varint(data, 0)
    ids: List[NodeID] = []
    pre = 0
    for _ in range(count):
        delta, pos = _read_varint(data, pos)
        post, pos = _read_varint(data, pos)
        depth, pos = _read_varint(data, pos)
        pre += delta
        ids.append(NodeID(pre, post, depth))
    if pos != len(data):
        raise EncodingError("{} trailing bytes".format(len(data) - pos))
    return ids


_TEXT_ID = re.compile(r"\((\d+),\s*(\d+),\s*(\d+)\)")


def encode_ids_text(ids: Iterable[NodeID]) -> str:
    """The paper's textual form: ``(3, 3, 2)(6, 8, 3)``."""
    return "".join(node_id.as_text() for node_id in ids)


def decode_ids_text(text: str) -> List[NodeID]:
    """Decode the textual form; raises on garbage between IDs."""
    ids: List[NodeID] = []
    pos = 0
    for match in _TEXT_ID.finditer(text):
        if text[pos:match.start()].strip():
            raise EncodingError(
                "unexpected characters in ID list: {!r}".format(
                    text[pos:match.start()]))
        ids.append(NodeID(int(match.group(1)), int(match.group(2)),
                          int(match.group(3))))
        pos = match.end()
    if text[pos:].strip():
        raise EncodingError(
            "unexpected trailing characters: {!r}".format(text[pos:]))
    return ids
