"""The model-document extraction walk, kept as the tests' reference.

The write path extracts postings from a document's bytes in one walk
over the parser's tree (``repro.indexing.entries.collect_occurrences``)
and builds no document model.  These are the forms it replaced: a walk
over a parsed :class:`~repro.xmldb.model.Document` grouping its nodes'
identifiers and label paths per key, and each strategy's projection of
that walk into stored postings and entry objects.  The production path
must produce the same postings (key order, values, ``attr_bytes``,
``piece``) and the same ``ExtractionStats`` for every document that
survives a serialize-then-parse round trip.
"""

from typing import Dict, List, Tuple

from repro.indexing.base import ExtractionStats
from repro.indexing.entries import IndexEntry, Posting
from repro.indexing.keys import (attribute_key, attribute_value_key,
                                 element_key, text_word_keys)
from repro.xmldb.encoding import encode_ids
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Attribute, Document, Element, Text


class KeyOccurrences:
    """All occurrences of one key within one document: the node ``ids``
    in extraction (document) order, and the distinct label ``paths`` in
    first-seen order (an insertion-ordered dict's keys)."""

    __slots__ = ("ids", "paths")

    def __init__(self, node_id: NodeID, path: str) -> None:
        self.ids = [node_id]
        self.paths = {path: None}


def collect_occurrences(document: Document, include_words: bool = True,
                        ) -> Dict[str, KeyOccurrences]:
    """Group a document's nodes by index key, in one pass over the model.

    IDs inside each group come out sorted by ``pre`` because the walk is
    a pre-order traversal.  Word keys and word paths use the *text
    node's* identifier and its parent element's path plus the word step
    (Figure 3/4: ``wOlympia`` → (4, 2, 3), ``/epainting/ename/wOlympia``).
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


def oracle_postings(strategy, document: Document, canonical: bool = True,
                    ) -> Tuple[Dict[str, List[Posting]], ExtractionStats]:
    """``strategy.extract_postings`` as the model walk computed it: per
    logical table, one posting per key in key order, each sized by the
    size formula (and pieced if ``canonical``)."""
    occurrences = sorted(collect_occurrences(
        document, include_words=strategy.include_words).items())
    by_table: Dict[str, List[Posting]] = {}
    stats = ExtractionStats()
    for table in strategy.logical_tables:
        kind = strategy.table_kind(table)
        postings = []
        for key, group in occurrences:
            if kind == "ids":
                values = (encode_ids(group.ids),)
                stats.ids += len(group.ids)
            elif kind == "paths":
                values = tuple(group.paths)
                stats.paths += len(values)
            else:
                values = ()
            postings.append(Posting(key, document.uri, values, canonical))
        stats.entries += len(postings)
        by_table[table] = postings
    return by_table, stats


def oracle_entries(strategy, document: Document,
                   ) -> Dict[str, List[IndexEntry]]:
    """``strategy.extract`` as the model walk computed it."""
    occurrences = sorted(collect_occurrences(
        document, include_words=strategy.include_words).items())
    kinds = {table: strategy.table_kind(table)
             for table in strategy.logical_tables}
    return {table: [IndexEntry(key=key, uri=document.uri,
                               ids=tuple(group.ids) if kind == "ids" else (),
                               paths=(tuple(group.paths)
                                      if kind == "paths" else ()))
                    for key, group in occurrences]
            for table, kind in kinds.items()}
