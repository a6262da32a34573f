"""Index entries: what a strategy extracts from one document.

Table 2 defines an indexing strategy as a function returning tuples
``(k, (a, v+)+)+``: a key, an attribute named by the document URI, and
that attribute's values.  An :class:`IndexEntry` is one
``(key, URI, values)`` triple; its payload is one of:

- **presence** — no values (the LU ε);
- **paths** — the node's root-to-node label paths (LUP);
- **ids** — the node's structural identifiers, sorted by ``pre`` (LUI).

:func:`collect_occurrences` walks a document's bytes once and groups
its nodes by key, which every concrete strategy then projects into its
own payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.dynamodb import attribute_size
from repro.indexing.checksums import AttrValue, attribute_piece
from repro.indexing.keys import (attribute_key, attribute_value_key,
                                 element_key, text_word_keys)
from repro.xmldb.ids import NodeID
from repro.xmldb.parser import parse_tree


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
    one for a store that stamps no checksum is only sized, or takes the
    ``attr_bytes`` its extraction already counted.
    """

    __slots__ = ("key", "uri", "values", "attr_bytes", "piece")

    def __init__(self, key: str, uri: str, values: Tuple[AttrValue, ...],
                 canonical: bool = True,
                 attr_bytes: Optional[int] = None) -> None:
        self.key = key
        self.uri = uri
        self.values = values
        if canonical:
            self.piece, self.attr_bytes = attribute_piece(uri, values)
        else:
            self.piece = None
            self.attr_bytes = (attribute_size(uri, values)
                               if attr_bytes is None else attr_bytes)


#: What ``write_entries`` and the ledger hash take: postings (a loader's,
#: a fold's) or entry objects (a repair's), converted at the packer.
Entries = Sequence[Union[IndexEntry, Posting]]


def collect_occurrences(data: bytes, uri: str, include_words: bool = True,
                        ) -> Tuple[Dict[str, Tuple[List[int], Dict[str, None]]],
                                   List[Any]]:
    """Group one document's nodes by index key, in one walk over the
    tree of :func:`~repro.xmldb.parser.parse_tree` (no document model).

    Returns ``(groups, rows)``.  ``groups`` maps each key to its nodes'
    ``pre`` ordinals, sorted because the walk is a pre-order traversal
    (the LUI invariant, §5.3, for free), and to its distinct label paths
    in first-seen order.  ``rows[pre]`` is that node's (pre, post,
    depth), numbered as :func:`~repro.xmldb.model.assign_identifiers`
    numbers it: a node's post is the count of nodes completed by then,
    ``last pre of its subtree - depth + 1``.  Word keys take the *text
    node's* ordinal and its parent element's path plus the word step
    (Figure 3/4: ``wOlympia`` → (4, 2, 3), ``/epainting/ename/wOlympia``).
    """
    rows: List[Any] = [None]  # rows[pre]; an element's row on its close
    visits: List[Tuple[int, str, Sequence[str]]] = []  # (pre, step, keys)
    append_row, visit = rows.append, visits.append
    # Open elements: (element, its children, its pre, its path + "/",
    # its depth); ``element`` is the next one to enter, below ``step``.
    open_elements: List[tuple] = []
    element, step, depth, pre = parse_tree(data, uri), "/", 1, 0
    while element is not None:
        pre += 1
        own = pre
        append_row(None)
        key = element_key(element.tag)
        visit((pre, step, (key,)))
        step += key + "/"
        for name, value in element.attrib.items():
            pre += 1
            append_row((pre, pre - depth, depth + 1))
            visit((pre, step, (attribute_key(name),
                               attribute_value_key(name, value))))
        text = element.text
        if text:
            pre += 1
            append_row((pre, pre - depth, depth + 1))
            if include_words:
                visit((pre, step, text_word_keys(text)))
        open_elements.append((element, iter(element), own, step, depth))
        element = None
        while open_elements:
            closing, children, own, step, depth = open_elements[-1]
            element = next(children, None)
            if element is not None:
                depth += 1
                break
            open_elements.pop()
            rows[own] = (own, pre - depth + 1, depth)
            tail = closing.tail
            if tail and open_elements:  # the root's tail is not content
                pre += 1
                append_row((pre, pre - depth + 1, depth))
                if include_words:
                    visit((pre, open_elements[-1][3], text_word_keys(tail)))
    groups: Dict[str, Tuple[List[int], Dict[str, None]]] = {}
    get = groups.get
    for pre, step, keys in visits:
        for key in keys:
            group = get(key)
            if group is None:
                groups[key] = ([pre], {step + key: None})
            else:
                group[0].append(pre)
                group[1][step + key] = None
    return groups, rows
