"""Index entries: what a strategy extracts from one document.

Table 2 defines an indexing strategy as a function returning tuples
``(k, (a, v+)+)+``: a key, an attribute named by the document URI, and
that attribute's values.  An :class:`IndexEntry` is one
``(key, URI, values)`` triple; its payload is one of:

- **presence** — no values (the LU ε);
- **paths** — the node's root-to-node label paths (LUP);
- **ids** — the node's structural identifiers, sorted by ``pre`` (LUI).

Extraction helpers walk a document once and group nodes by key, which
every concrete strategy then projects into its own payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

from repro.cloud.dynamodb import attribute_size
from repro.indexing.checksums import AttrValue, attribute_piece
from repro.indexing.keys import (attribute_key, attribute_value_key,
                                 element_key, text_word_keys)
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Attribute, Document, Element, Text


@dataclass(frozen=True)
class IndexEntry:
    """One ``(key, URI, payload)`` index tuple."""

    key: str
    uri: str
    paths: Tuple[str, ...] = ()
    ids: Tuple[NodeID, ...] = ()

    def __post_init__(self) -> None:
        ids = self.ids
        if ids and self.paths:
            raise ValueError("an entry carries paths or ids, not both")
        for index in range(1, len(ids)):
            if ids[index].pre <= ids[index - 1].pre:
                raise ValueError("entry IDs must be sorted by pre")

    @property
    def kind(self) -> str:
        """``"presence"``, ``"paths"`` or ``"ids"``."""
        if self.paths:
            return "paths"
        if self.ids:
            return "ids"
        return "presence"


class Posting:
    """An index tuple in *stored form*: ``values`` is exactly what the
    store holds under attribute ``uri`` of an item of ``key`` — ``()``,
    the label paths, or one encoded ID blob.  The write side packs and
    hashes this shape, and a compaction carries it from scan to put.

    A ``canonical`` posting is born with its :func:`attribute_piece`
    and its billable ``attr_bytes`` from one utf-8 encode per value;
    one for a store that stamps no checksum is only sized.
    """

    __slots__ = ("key", "uri", "values", "attr_bytes", "piece")

    def __init__(self, key: str, uri: str, values: Tuple[AttrValue, ...],
                 canonical: bool = True) -> None:
        self.key = key
        self.uri = uri
        self.values = values
        if canonical:
            self.piece, self.attr_bytes = attribute_piece(uri, values)
        else:
            self.piece, self.attr_bytes = None, attribute_size(uri, values)


#: What ``write_entries`` and the ledger hash take: postings (a loader's,
#: a fold's) or entry objects (a repair's), converted at the packer.
Entries = Sequence[Union[IndexEntry, Posting]]


class KeyOccurrences:
    """All occurrences of one key within one document: the node ``ids``
    in extraction (document) order, and the distinct label ``paths`` in
    first-seen order (an insertion-ordered dict's keys)."""

    __slots__ = ("ids", "paths")

    def __init__(self, node_id: NodeID, path: str) -> None:
        self.ids = [node_id]
        self.paths = {path: None}


def collect_occurrences(document: Document,
                        include_words: bool = True,
                        ) -> Dict[str, KeyOccurrences]:
    """Group a document's nodes by index key, in one pass.

    IDs inside each group come out sorted by ``pre`` because the walk is
    a pre-order traversal — the LUI invariant (§5.3) for free.  Word
    keys may repeat per text node; duplicates of the *same* ID are
    collapsed.

    Word keys and word paths use the *text node's* identifier and its
    parent element's path plus the word step — matching Figure 3/4
    (``wOlympia`` → (4, 2, 3), path ``/epainting/ename/wOlympia``).
    """
    groups: Dict[str, KeyOccurrences] = {}
    for node in document.iter_nodes():
        node_id = node.node_id
        if isinstance(node, Element):
            occurrences = ((element_key(node.label), node.path),)
        elif isinstance(node, Attribute):
            # Two keys per attribute: name-only and name+value (§5).
            path = node.path
            value_key = attribute_value_key(node.name, node.value)
            occurrences = (
                (attribute_key(node.name), path),
                (value_key, path.rsplit("/", 1)[0] + "/" + value_key))
        elif include_words and isinstance(node, Text):
            step = node.parent_path + "/"
            occurrences = [(key, step + key)
                           for key in text_word_keys(node.value)]
        else:
            continue
        for key, path in occurrences:
            group = groups.get(key)
            if group is None:
                groups[key] = KeyOccurrences(node_id, path)
            elif group.ids[-1] != node_id:  # same word twice in one text
                group.ids.append(node_id)
                group.paths[path] = None
    return groups
