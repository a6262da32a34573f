"""Strategy LUP — Label-URI-Path (§5.2).

Index: for each node ``n ∈ d``, associate ``key(n)`` with
``(URI(d), {inPath1(n), ..., inPathy(n)})`` — every distinct
root-to-node label path on which the key occurs in the document.

Look-up: for each root-to-leaf *query path*, retrieve all data paths
associated with the path's last key and keep the documents having at
least one data path matching the query path; intersect across query
paths.
"""

from __future__ import annotations

from typing import Dict, List

from repro.indexing.base import IndexingStrategy
from repro.indexing.entries import IndexEntry
from repro.xmldb.model import Document


class LUPStrategy(IndexingStrategy):
    """Label-URI-Path indexing."""

    name = "LUP"
    logical_tables = ("lup",)
    fallback_rank = 2

    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I_LUP(d)``: key -> URI + label paths (Table 2)."""
        return self._entries(document)

    def make_lookup(self, store, table_names: Dict[str, str]):
        """Build the §5.2 LUP look-up planner."""
        from repro.indexing.lookup_plans import LUPLookup
        return LUPLookup(store, table_names["lup"],
                         include_words=self.include_words)
