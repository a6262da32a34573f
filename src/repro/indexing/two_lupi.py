"""Strategy 2LUPI — both LUP and LUI materialised (§5.4).

Index: the union of the LUP and LUI indexes, stored in two separate
tables (§6: "for 2LUPI two different tables (one for each sub-index)
are used").

Look-up (Figure 5): first the LUP sub-index yields the URIs of
documents whose data paths match every query path — relation
``R1(URI)``; then the LUI sub-index is consulted for the query keys'
ID lists (relations ``R2^ai``), each *reduced* by semi-join with
``R1`` before the holistic twig join runs.  2LUPI returns the same URIs
as LUI — the reduction is pure pre-filtering (§5.4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.indexing.base import IndexingStrategy
from repro.indexing.entries import IndexEntry
from repro.xmldb.model import Document


class TwoLUPIStrategy(IndexingStrategy):
    """2LUPI: materialise LUP and LUI side by side."""

    name = "2LUPI"
    logical_tables = ("lup", "lui")
    fallback_rank = 3

    def __init__(self, include_words: bool = True,
                 reduction_enabled: bool = True) -> None:
        super().__init__(include_words=include_words)
        #: The §5.4 semi-join pre-filter; switchable for the ablation
        #: bench (disabling it must not change results, only work done).
        self.reduction_enabled = reduction_enabled

    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I_2LUPI(d)``: both sub-indexes' entries (Table 2), projected
        from one walk of the document."""
        return self._entries(document)

    def make_lookup(self, store, table_names: Dict[str, str]):
        """Build the §5.4 two-phase look-up planner."""
        from repro.indexing.lookup_plans import TwoLUPILookup
        return TwoLUPILookup(store, table_names["lup"], table_names["lui"],
                             include_words=self.include_words,
                             reduction_enabled=self.reduction_enabled)
