"""Strategy LU — Label-URI (§5.1).

Index: for each node ``n ∈ d``, associate ``key(n)`` with
``(URI(d), ε)``.  The coarsest (and cheapest) of the four strategies:
the index only records *which documents contain which keys*.

Look-up: "all node names, attribute and element string values are
extracted from the query and the respective look-ups are performed.
The URI sets thus obtained are intersected."
"""

from __future__ import annotations

from typing import Dict, List

from repro.indexing.base import IndexingStrategy
from repro.indexing.entries import IndexEntry
from repro.xmldb.model import Document


class LUStrategy(IndexingStrategy):
    """Label-URI indexing."""

    name = "LU"
    logical_tables = ("lu",)
    fallback_rank = 1

    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I_LU(d)``: one presence entry per key (Table 2)."""
        return self._entries(document)

    def make_lookup(self, store, table_names: Dict[str, str], tracer):
        """Build the §5.1 LU look-up planner."""
        from repro.indexing.lookup_plans import LULookup
        return LULookup(store, table_names["lu"], tracer,
                        include_words=self.include_words)
