"""Property-based tests: the postings a build stores are the model's.

A build carries ``extract_postings`` from one walk over a document's
bytes to the put; ``extract`` is the entry-object view of the same
postings.  For every strategy, with and without full-text keys,
canonical or only sized, the postings must be exactly what the model
walk of ``tests/indexing/extraction_oracle.py`` computes over the parsed
document — key order, values, billable bytes, pieces, work counts — the
two views must agree posting for posting, and the LUI sortedness
invariant must still be refused at extraction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.indexing.extraction_oracle import oracle_entries, oracle_postings
from tests.properties.strategies import documents

from repro.cloud.dynamodb import attribute_size
from repro.errors import EncodingError
from repro.indexing import base
from repro.indexing.base import ExtractionStats
from repro.indexing.mapper import stored_postings
from repro.indexing.registry import ALL_STRATEGY_NAMES, strategy
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize

FIELDS = ("key", "uri", "values", "attr_bytes", "piece")


def _fields(postings):
    return [[getattr(posting, field) for field in FIELDS]
            for posting in postings]


def _assert_projection_is_the_entry_view(document, name, include_words,
                                         canonical):
    indexing = strategy(name, include_words=include_words)
    by_table, stats = indexing.extract_postings(
        serialize(document), document.uri, canonical)
    entries = indexing.extract(document)
    assert list(by_table) == list(entries) == list(indexing.logical_tables)
    for table, postings in by_table.items():
        assert _fields(postings) == _fields(
            stored_postings(entries[table], canonical))
        assert all((posting.piece is not None) == canonical
                   for posting in postings)
    assert stats == ExtractionStats.of(entries)
    assert stats.entries == sum(map(len, by_table.values()))


def _assert_bytes_walk_is_the_model_walk(document, name, include_words,
                                         canonical):
    indexing = strategy(name, include_words=include_words)
    data = serialize(document)
    by_table, stats = indexing.extract_postings(data, document.uri,
                                                canonical)
    parsed = parse_document(data, document.uri)
    expected, expected_stats = oracle_postings(indexing, parsed, canonical)
    assert list(by_table) == list(expected)
    for table, postings in by_table.items():
        assert _fields(postings) == _fields(expected[table])
        assert all(posting.attr_bytes == attribute_size(posting.uri,
                                                        posting.values)
                   for posting in postings)
    assert stats == expected_stats
    # The entry view of a round-tripping document is what it always was.
    assert indexing.extract(document) == oracle_entries(indexing, document)


@given(documents(), st.sampled_from(ALL_STRATEGY_NAMES), st.booleans(),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_projection_is_the_entry_view(document, name, include_words,
                                      canonical):
    _assert_projection_is_the_entry_view(document, name, include_words,
                                         canonical)


@given(documents(), st.sampled_from(ALL_STRATEGY_NAMES), st.booleans(),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_postings_from_bytes_are_the_model_walks(document, name,
                                                 include_words, canonical):
    _assert_bytes_walk_is_the_model_walk(document, name, include_words,
                                         canonical)


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("include_words", [True, False])
@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_projection_is_the_entry_view_on_figure_3(manet, name, include_words,
                                                  canonical):
    _assert_projection_is_the_entry_view(manet, name, include_words,
                                         canonical)
    _assert_bytes_walk_is_the_model_walk(manet, name, include_words,
                                         canonical)
    if name == "LUI" and include_words:
        # §5.3's printed tuple: ename -> (3, 3, 2)(6, 8, 3), one blob.
        postings, _ = strategy(name).extract_postings(
            serialize(manet), manet.uri, canonical)
        ename = [p for p in postings["lui"] if p.key == "ename"]
        assert [p.values for p in ename] == [(bytes([2, 3, 3, 2, 3, 8, 3]),)]


@pytest.mark.parametrize("include_words", [True, False])
@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_generated_corpus_postings_are_the_model_walks(small_corpus, name,
                                                       include_words):
    """Every strategy, over real generated documents (the bytes a build
    fetches), both canonical and only sized."""
    for document in small_corpus.documents[:12]:
        for canonical in (True, False):
            _assert_bytes_walk_is_the_model_walk(document, name,
                                                 include_words, canonical)


@pytest.mark.parametrize("second", [5, 3],
                         ids=["repeated-pre", "decreasing-pre"])
@pytest.mark.parametrize("name", ["LUI", "2LUPI"])
def test_unsorted_occurrences_are_refused_at_extraction(
        monkeypatch, manet, name, second):
    def unsorted(data, uri, include_words=True):
        rows = {5: (5, 1, 2), 3: (3, 9, 2)}
        return {"eb": ([5, second], {"/ea/eb": None})}, rows

    monkeypatch.setattr(base, "collect_occurrences", unsorted)
    with pytest.raises(EncodingError):
        strategy(name).extract_postings(serialize(manet), manet.uri)


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("name", ALL_STRATEGY_NAMES)
def test_non_ascii_document_is_sized_in_bytes(name, canonical):
    """Labels, values and URI outside ASCII: every billable byte counts
    as the size formula counts it, not as characters."""
    data = ("<peintureï id=\"été\"><nom>Zéro</nom>"
            "</peintureï>").encode()
    uri = "é.xml"
    indexing = strategy(name)
    by_table, stats = indexing.extract_postings(data, uri, canonical)
    expected, expected_stats = oracle_postings(
        indexing, parse_document(data, uri), canonical)
    assert {table: _fields(postings)
            for table, postings in by_table.items()} == {
        table: _fields(postings) for table, postings in expected.items()}
    assert stats == expected_stats
