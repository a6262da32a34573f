"""Property-based tests: the stored-form projection is the entry view.

A build carries ``extract_postings`` from the document walk to the put;
``extract`` is the entry-object view of the same walk.  For every
strategy, with and without full-text keys, canonical or only sized, the
two must agree posting for posting, count for count — and the LUI
sortedness invariant, which ``IndexEntry`` used to state a second time,
must still be refused at extraction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents

from repro.errors import EncodingError
from repro.indexing import base
from repro.indexing.base import ExtractionStats
from repro.indexing.entries import KeyOccurrences
from repro.indexing.mapper import stored_postings
from repro.indexing.registry import ALL_STRATEGY_NAMES, strategy
from repro.xmldb.ids import NodeID

FIELDS = ("key", "uri", "values", "attr_bytes", "piece")


def _fields(postings):
    return [[getattr(posting, field) for field in FIELDS]
            for posting in postings]


def _assert_projection_is_the_entry_view(document, name, include_words,
                                         canonical):
    indexing = strategy(name, include_words=include_words)
    by_table, stats = indexing.extract_postings(document, canonical)
    entries = indexing.extract(document)
    assert list(by_table) == list(entries) == list(indexing.logical_tables)
    for table, postings in by_table.items():
        assert _fields(postings) == _fields(
            stored_postings(entries[table], canonical))
        assert all((posting.piece is not None) == canonical
                   for posting in postings)
    assert stats == ExtractionStats.of(entries)
    assert stats.entries == sum(map(len, by_table.values()))


@given(documents(), st.sampled_from(ALL_STRATEGY_NAMES), st.booleans(),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_projection_is_the_entry_view(document, name, include_words,
                                      canonical):
    _assert_projection_is_the_entry_view(document, name, include_words,
                                         canonical)


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("include_words", [True, False])
@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_projection_is_the_entry_view_on_figure_3(manet, name, include_words,
                                                  canonical):
    _assert_projection_is_the_entry_view(manet, name, include_words,
                                         canonical)
    if name == "LUI" and include_words:
        # §5.3's printed tuple: ename -> (3, 3, 2)(6, 8, 3), one blob.
        postings, _ = strategy(name).extract_postings(manet, canonical)
        ename = [p for p in postings["lui"] if p.key == "ename"]
        assert [p.values for p in ename] == [(bytes([2, 3, 3, 2, 3, 8, 3]),)]


@pytest.mark.parametrize("second", [NodeID(5, 9, 2), NodeID(3, 9, 2)],
                         ids=["repeated-pre", "decreasing-pre"])
@pytest.mark.parametrize("name", ["LUI", "2LUPI"])
def test_unsorted_occurrences_are_refused_at_extraction(
        monkeypatch, manet, name, second):
    def unsorted(document, include_words=True):
        group = KeyOccurrences(NodeID(5, 1, 2), "/ea/eb")
        group.ids.append(second)
        return {"eb": group}

    monkeypatch.setattr(base, "collect_occurrences", unsorted)
    with pytest.raises(EncodingError):
        strategy(name).extract_postings(manet)
