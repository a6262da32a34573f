"""Strategy LUI — Label-URI-ID (§5.3).

Index: for each node ``n ∈ d``, associate ``key(n)`` with
``(URI(d), id1(n)‖id2(n)‖...‖idz(n))`` where the identifiers are
concatenated *already sorted by their pre component*: "structural XML
joins which are used to identify the relevant documents need sorted
inputs: thus, by keeping the identifiers ordered, we reduce the use of
expensive sort operators after the look-up."

Look-up: search the index for all the query keys, then feed the ID
streams (grouped per URI, already sorted) to the holistic twig join;
documents whose streams admit a full twig match are returned.
"""

from __future__ import annotations

from typing import Dict, List

from repro.indexing.base import IndexingStrategy
from repro.indexing.entries import IndexEntry
from repro.xmldb.model import Document


class LUIStrategy(IndexingStrategy):
    """Label-URI-ID indexing."""

    name = "LUI"
    logical_tables = ("lui",)
    fallback_rank = 2

    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I_LUI(d)``: key -> URI + sorted IDs (Table 2)."""
        return self._entries(document)

    def make_lookup(self, store, table_names: Dict[str, str], tracer):
        """Build the §5.3 LUI look-up planner."""
        from repro.indexing.lookup_plans import LUILookup
        return LUILookup(store, table_names["lui"], tracer,
                         include_words=self.include_words)
