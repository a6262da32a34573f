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

from typing import Dict, List, Tuple

from repro.indexing.base import ExtractionStats, IndexingStrategy
from repro.indexing.entries import IndexEntry, Posting
from repro.xmldb.model import Document


class LUPStrategy(IndexingStrategy):
    """Label-URI-Path indexing."""

    name = "LUP"
    logical_tables = ("lup",)
    fallback_rank = 2

    def extract(self, document: Document) -> Dict[str, List[IndexEntry]]:
        """``I_LUP(d)``: key -> URI + label paths (Table 2)."""
        return {"lup": [IndexEntry(key=key, uri=document.uri,
                                   paths=tuple(group.paths))
                        for key, group in self._occurrences(document)]}

    def extract_postings(self, document: Document, canonical: bool = True,
                         ) -> Tuple[Dict[str, List[Posting]], ExtractionStats]:
        """``I_LUP(d)`` in stored form: the paths are the values."""
        uri = document.uri
        postings, count = [], 0
        for key, group in self._occurrences(document):
            paths = tuple(group.paths)
            count += len(paths)
            postings.append(Posting(key, uri, paths, canonical))
        return {"lup": postings}, ExtractionStats(len(postings), paths=count)

    def make_lookup(self, store, table_names: Dict[str, str]):
        """Build the §5.2 LUP look-up planner."""
        from repro.indexing.lookup_plans import LUPLookup
        return LUPLookup(store, table_names["lup"],
                         include_words=self.include_words)
