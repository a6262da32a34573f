"""Strategy interface shared by LU, LUP, LUI and 2LUPI.

A strategy couples:

- ``extract(document)`` — the indexing function ``I(d)`` of Table 2,
  returning entries grouped by *logical table* (every strategy uses one
  table except 2LUPI, which materialises both of its sub-indexes in
  separate tables, §6); ``extract_postings`` returns the same tuples
  in the form the store holds, which is what a build carries;
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

from repro.indexing.entries import IndexEntry, Posting, collect_occurrences
from repro.xmldb.model import Document


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
    def extract_postings(self, document: Document, canonical: bool = True,
                         ) -> Tuple[Dict[str, List[Posting]], ExtractionStats]:
        """``I(d)`` in stored form (``canonical`` as for ``Posting``) and
        its work accounting: :meth:`extract`'s occurrences in the same
        key order, each ID list already its one blob."""

    @abc.abstractmethod
    def make_lookup(self, store, table_names: Dict[str, str]):
        """Build this strategy's look-up planner over ``store``.

        ``table_names`` maps logical table names to physical ones.
        """

    # -- shared extraction machinery ----------------------------------------

    def _occurrences(self, document: Document):
        """The one walk, as (key, group) pairs in the order written."""
        return sorted(collect_occurrences(
            document, include_words=self.include_words).items())

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
