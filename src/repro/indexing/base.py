"""Strategy interface shared by LU, LUP, LUI and 2LUPI.

A strategy couples:

- ``extract_postings(data, uri)`` — the indexing function ``I(d)`` of
  Table 2 over a document's bytes, returning the tuples in the form the
  store holds, grouped by *logical table* (every strategy uses one
  table except 2LUPI, which materialises both of its sub-indexes in
  separate tables, §6): what a build carries; ``extract(document)`` is
  its entry-object view of a model document;
- ``lookup(...)`` — the strategy's look-up planner (built in
  :mod:`repro.indexing.lookup_plans`), which maps a query tree pattern
  to the URIs of possibly-matching documents.

``include_words`` switches full-text (word) indexing on or off — the
two variants of Figure 8.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.indexing.checksums import attribute_head
from repro.indexing.entries import IndexEntry, Posting, collect_occurrences
from repro.xmldb.encoding import decode_ids, encode_id_rows
from repro.xmldb.model import Document
from repro.xmldb.serializer import serialize


@dataclass
class ExtractionStats:
    """Work accounting for one extraction, used to charge simulated CPU.

    ``entries`` drives the per-entry floor cost, ``ids`` the structural
    identifier cost (LUI/2LUPI pay it), ``paths`` the path
    materialisation cost (LUP/2LUPI pay it) — this cost structure is
    what makes Table 4's extraction-time ordering come out.
    """

    entries: int = 0
    ids: int = 0
    paths: int = 0

    @staticmethod
    def of(entries_by_table: Dict[str, List[IndexEntry]]) -> "ExtractionStats":
        entries = ids = paths = 0
        for table_entries in entries_by_table.values():
            entries += len(table_entries)
            for entry in table_entries:
                ids += len(entry.ids)
                paths += len(entry.paths)
        return ExtractionStats(entries=entries, ids=ids, paths=paths)

    def merge(self, other: "ExtractionStats") -> None:
        """Accumulate another extraction's counts into this one."""
        self.entries += other.entries
        self.ids += other.ids
        self.paths += other.paths


class IndexingStrategy(abc.ABC):
    """Base class of the four §5 strategies."""

    #: Strategy name as used in the paper ("LU", "LUP", "LUI", "2LUPI").
    name: str = ""
    #: Logical table names this strategy materialises.
    logical_tables: Tuple[str, ...] = ()
    #: Position in the degradation chain 2LUPI → LUI/LUP → LU → S3 scan:
    #: when a table is suspect the query processor falls back to the
    #: healthy strategy with the highest rank below the current one.
    fallback_rank: int = 0

    def __init__(self, include_words: bool = True) -> None:
        self.include_words = include_words

    @abc.abstractmethod
    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I(d)``: entries to add per logical table for ``document``
        (the entry-object view: ``NodeID`` tuples, path tuples)."""

    @abc.abstractmethod
    def make_lookup(self, store, table_names: Dict[str, str], tracer):
        """Build this strategy's look-up planner over ``store``.

        ``table_names`` maps logical table names to physical ones;
        ``tracer`` is the deployment's, which the planner opens its
        spans on.
        """

    # -- shared extraction machinery ----------------------------------------

    def extract_postings(self, data: bytes, uri: str, canonical: bool = True,
                         ) -> Tuple[Dict[str, List[Posting]], ExtractionStats]:
        """``I(d)`` of the document ``data`` stored under ``uri``: per
        logical table, one posting per key in key order, in stored form
        (``canonical`` as for ``Posting``), and its work accounting.

        One walk feeds every table, and each posting is sized from it:
        the URI's bytes (and its pieces' head) once per document, paths
        by one encode of them joined, an ID blob by its length — blobs
        are encoded once per distinct ID list of the document, straight
        from the walk's rows (the codec refuses a list not strictly
        sorted by ``pre``, §5.3).
        """
        groups, rows = collect_occurrences(data, uri, self.include_words)
        keys = sorted(groups)
        found = [groups[key] for key in keys]
        uri_bytes = len(uri.encode())
        head = attribute_head(uri) if canonical else None
        by_table: Dict[str, List[Posting]] = {}
        stats = ExtractionStats(entries=len(keys) * len(self.logical_tables))
        for table in self.logical_tables:
            kind = self.table_kind(table)
            if kind == "ids":
                lists = [tuple(pres) for pres, _ in found]
                blobs = dict.fromkeys(lists)
                for ids in blobs:
                    blob = encode_id_rows(map(rows.__getitem__, ids), len(ids))
                    blobs[ids] = ((blob,), uri_bytes + len(blob))
                by_table[table] = [
                    Posting(key, uri, value, canonical, size, head)
                    for key, (value, size) in zip(keys, map(blobs.__getitem__,
                                                            lists))]
                stats.ids = sum(map(len, lists))
            elif kind == "paths":
                values = [tuple(paths) for _, paths in found]
                by_table[table] = [
                    Posting(key, uri, value, canonical,
                            uri_bytes + len("".join(value).encode()), head)
                    for key, value in zip(keys, values)]
                stats.paths = sum(map(len, values))
            else:
                by_table[table] = [Posting(key, uri, (), canonical, uri_bytes,
                                           head) for key in keys]
        return by_table, stats

    def _entries(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """:meth:`extract`: the postings of the document's bytes, with
        each ID blob decoded back to its ``NodeID`` tuple."""
        by_table, _ = self.extract_postings(serialize(document),
                                            document.uri, canonical=False)
        return {table: [IndexEntry(posting.key, posting.uri,
                                   ids=tuple(decode_ids(posting.values[0])))
                        if table == "lui" else
                        IndexEntry(posting.key, posting.uri,
                                   paths=posting.values)
                        for posting in postings]
                for table, postings in by_table.items()}

    def table_kind(self, logical_table: str) -> str:
        """Payload kind stored in a logical table
        ("presence", "paths" or "ids")."""
        kinds = {"lu": "presence", "lup": "paths", "lui": "ids"}
        return kinds[logical_table]

    def describe(self) -> str:
        """One-line human description (used by the bench reports)."""
        words = "full-text" if self.include_words else "no keywords"
        return "{} ({}, tables: {})".format(
            self.name, words, ", ".join(self.logical_tables))

    def __repr__(self) -> str:
        return "<IndexingStrategy {}>".format(self.describe())
