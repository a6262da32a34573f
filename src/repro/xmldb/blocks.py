"""Columnar blocks of structural identifiers.

Walking ID lists as per-object :class:`~repro.xmldb.ids.NodeID` tuples
would make the Python interpreter — not the simulated cloud — dominate
the twig-join hot path at warehouse scale.  :class:`IDBlock` keeps the
same logical content as a pre-sorted ``List[NodeID]`` but stores it as
three parallel ``array('q')`` columns (pre / post / depth), so the
engine kernels in :mod:`repro.engine.columnar` can run merge loops over
flat machine integers instead of attribute lookups on NamedTuples.
Every ID payload an index read returns is one.

Blocks decode **lazily** from the binary codec of
:mod:`repro.xmldb.encoding`: :meth:`IDBlock.from_encoded` reads only
the leading count varint (so ``len()`` — and therefore the
``rows_processed`` accounting — is cheap), and inflates the columns on
first access.  A 2LUPI lookup that discards a candidate document before
joining it therefore never pays for decoding that document's IDs.

The lazy decode is *stricter* than :func:`~repro.xmldb.encoding.
decode_ids`: a non-positive ``pre`` delta (which would break the LUI
sortedness invariant) raises :class:`~repro.errors.EncodingError`, so
corrupt index bytes surface as a decode failure that the degradation
ladder already knows how to catch.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.errors import EncodingError, EvaluationError
from repro.xmldb.ids import NodeID

__all__ = ["IDBlock", "as_block"]

#: Bytes per decoded ID across the three int64 columns.
_DECODED_BYTES_PER_ID = 24


def _decode_columns(data: bytes) -> "tuple[array, array, array]":
    """Inflate ``encode_ids`` bytes into three parallel ``array('q')``s.

    One inlined varint loop over a C-level bytes iterator — no
    per-varint function calls, no position arithmetic and no NodeID
    construction.  Enforces the strictly-positive pre-delta invariant
    that :func:`~repro.xmldb.encoding.encode_ids` guarantees on write.
    """
    pres = array("q")
    posts = array("q")
    depths = array("q")
    it = iter(data)
    nxt = it.__next__
    try:
        # count varint
        byte = nxt()
        if byte < 0x80:
            count = byte
        else:
            count = byte & 0x7F
            shift = 7
            while True:
                byte = nxt()
                count |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise EncodingError("varint too long")
        append_pre = pres.append
        append_post = posts.append
        append_depth = depths.append
        pre = 0
        for _ in range(count):
            # pre delta
            byte = nxt()
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    byte = nxt()
                    value |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise EncodingError("varint too long")
            if value <= 0:
                raise EncodingError(
                    "IDs are not strictly sorted by pre (delta {} after "
                    "pre {})".format(value, pre))
            pre += value
            append_pre(pre)
            # post
            byte = nxt()
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    byte = nxt()
                    value |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise EncodingError("varint too long")
            append_post(value)
            # depth
            byte = nxt()
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    byte = nxt()
                    value |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise EncodingError("varint too long")
            append_depth(value)
    except StopIteration:
        raise EncodingError("truncated varint") from None
    except OverflowError:  # a ten-byte varint past the int64 columns
        raise EncodingError("ID value beyond 64 bits") from None
    if next(it, None) is not None:
        raise EncodingError("trailing bytes after {} IDs".format(count))
    return pres, posts, depths


def _encoded_count(data: bytes) -> int:
    """Read just the leading count varint of an encoded blob."""
    count = 0
    shift = 0
    pos = 0
    size = len(data)
    while True:
        if pos >= size:
            raise EncodingError("truncated varint")
        byte = data[pos]
        pos += 1
        count |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return count
        shift += 7
        if shift > 63:
            raise EncodingError("varint too long")


class IDBlock:
    """A pre-sorted list of structural IDs in columnar form.

    Logically equivalent to a ``List[NodeID]`` sorted by ``pre``;
    compares equal to (and iterates as) NodeID sequences, so it can
    flow through payload maps, caches and overlays that were written
    for ID lists.  The columns themselves are reached through the
    :attr:`pres` / :attr:`posts` / :attr:`depths` properties, which
    force the lazy decode on first use.
    """

    __slots__ = ("_pres", "_posts", "_depths", "_raw", "_count")

    def __init__(self, pres: array, posts: array, depths: array) -> None:
        self._pres = pres
        self._posts = posts
        self._depths = depths
        self._raw: Optional[bytes] = None
        self._count = len(pres)

    # -- construction -------------------------------------------------

    @classmethod
    def from_ids(cls, ids: Iterable[NodeID]) -> "IDBlock":
        """Build a block from NodeIDs (or any (pre, post, depth) rows)."""
        pres = array("q")
        posts = array("q")
        depths = array("q")
        for pre, post, depth in ids:
            pres.append(pre)
            posts.append(post)
            depths.append(depth)
        return cls(pres, posts, depths)

    @classmethod
    def from_encoded(cls, data: bytes) -> "IDBlock":
        """Wrap ``encode_ids`` bytes *lazily*.

        Only the count varint is read eagerly; columns inflate on first
        access.  Corrupt bytes therefore raise
        :class:`~repro.errors.EncodingError` at first column access,
        not at construction — callers on the lookup path keep the
        error inside ``lookup_pattern`` where the degradation ladder
        expects it.
        """
        block = cls.__new__(cls)
        block._pres = None  # type: ignore[assignment]
        block._posts = None  # type: ignore[assignment]
        block._depths = None  # type: ignore[assignment]
        block._raw = bytes(data)
        block._count = _encoded_count(data)
        return block

    @classmethod
    def from_encoded_chunks(cls, blobs: Sequence[bytes]) -> "IDBlock":
        """Merge several encoded blobs into one block.

        Store chunking splits one logical list into blobs with disjoint
        ``pre`` ranges, and at-least-once delivery can redeliver whole
        blobs; concatenation therefore usually stays sorted, and exact
        duplicate triples are the only legitimate overlap.  Otherwise
        the distinct triples are re-sorted by ``pre``: for that data,
        the same list as ``sorted(set(ids), key=pre)`` over ``NodeID``s.
        """
        if len(blobs) == 1:
            return cls.from_encoded(blobs[0])
        pres = array("q")
        posts = array("q")
        depths = array("q")
        for blob in blobs:
            p, q, d = _decode_columns(blob)
            pres.extend(p)
            posts.extend(q)
            depths.extend(d)
        block = cls(pres, posts, depths)
        if block.is_sorted_by_pre():
            return block
        rows = sorted(set(zip(pres, posts, depths)))
        return cls.from_ids(rows)

    # -- columns ------------------------------------------------------

    def _force(self) -> None:
        raw = self._raw
        assert raw is not None
        self._pres, self._posts, self._depths = _decode_columns(raw)
        self._raw = None

    @property
    def pres(self) -> array:
        """The ``pre`` column (decodes a lazy block on first access)."""
        if self._pres is None:
            self._force()
        return self._pres

    @property
    def posts(self) -> array:
        """The ``post`` column (decodes a lazy block on first access)."""
        if self._posts is None:
            self._force()
        return self._posts

    @property
    def depths(self) -> array:
        """The ``depth`` column (decodes a lazy block on first access)."""
        if self._depths is None:
            self._force()
        return self._depths

    @property
    def is_lazy(self) -> bool:
        """True while the columns are still undecoded bytes."""
        return self._raw is not None

    @property
    def nbytes(self) -> int:
        """Approximate payload weight (for cache accounting)."""
        if self._raw is not None:
            return len(self._raw)
        return self._count * _DECODED_BYTES_PER_ID

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[NodeID]:
        pres = self.pres
        posts = self.posts
        depths = self.depths
        for i in range(self._count):
            yield NodeID(pres[i], posts[i], depths[i])

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return IDBlock(self.pres[index], self.posts[index],
                           self.depths[index])
        return NodeID(self.pres[index], self.posts[index],
                      self.depths[index])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IDBlock):
            return (self.pres == other.pres and self.posts == other.posts
                    and self.depths == other.depths)
        if isinstance(other, (list, tuple)):
            if len(other) != self._count:
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_lazy:
            return "IDBlock(lazy, {} ids, {} bytes)".format(
                self._count, len(self._raw or b""))
        return "IDBlock({})".format(", ".join(
            node_id.as_text() for node_id in self))

    # -- conversions and invariants -----------------------------------

    def to_ids(self) -> List[NodeID]:
        """Materialise as the row representation."""
        return list(self)

    def is_sorted_by_pre(self) -> bool:
        """Whether pre is strictly increasing (the LUI invariant)."""
        pres = self.pres
        return all(pres[i - 1] < pres[i] for i in range(1, len(pres)))

    def check_sorted(self, side: str) -> None:
        """Raise :class:`~repro.errors.EvaluationError` if unsorted."""
        pres = self.pres
        for i in range(1, len(pres)):
            if pres[i] <= pres[i - 1]:
                raise EvaluationError(
                    "{} list is not sorted by pre ({} after {})".format(
                        side, self[i], self[i - 1]))

    def sorted_by_pre(self) -> "IDBlock":
        """A copy sorted (stably) by ``pre`` — the ablation repair."""
        order = sorted(range(self._count), key=self.pres.__getitem__)
        pres = self.pres
        posts = self.posts
        depths = self.depths
        return IDBlock(array("q", (pres[i] for i in order)),
                       array("q", (posts[i] for i in order)),
                       array("q", (depths[i] for i in order)))


def as_block(ids: Union[IDBlock, Sequence[NodeID], None]) -> IDBlock:
    """Coerce a block or NodeID sequence to an :class:`IDBlock`."""
    if isinstance(ids, IDBlock):
        return ids
    if not ids:
        return IDBlock(array("q"), array("q"), array("q"))
    return IDBlock.from_ids(ids)
