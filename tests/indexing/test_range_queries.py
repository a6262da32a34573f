"""Range and value-join query handling (§5.5).

Range predicates: "we perform the index look-up without taking into
account the range predicate, in order to restrict the set of documents
to be queried; second, we evaluate the complete query over these
documents, as usual."
"""

import pytest

from repro.cloud import CloudProvider
from repro.engine.evaluator import evaluate_pattern, pattern_matches
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import strategy
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def lui_lookup(small_corpus):
    cloud = CloudProvider()
    store = DynamoIndexStore(cloud.dynamodb, seed=5)
    lui = strategy("LUI")
    tables = {"lui": "rq-lui"}
    store.create_table("rq-lui")

    def load():
        for document in small_corpus.documents:
            entries = lui.extract(document)["lui"]
            yield from store.write_entries("rq-lui", entries)
    cloud.env.run_process(load())
    return cloud, lui.make_lookup(store, tables, cloud.telemetry.tracer)


RANGE_PATTERN = "//open_auction[/initial in(50, 150)][/itemref]"
BASE_PATTERN = "//open_auction[/initial][/itemref]"


def test_range_lookup_equals_rangeless_lookup(lui_lookup):
    """The look-up ignores the range: same URIs as the base pattern."""
    cloud, lookup = lui_lookup
    with_range = cloud.env.run_process(
        lookup.lookup_pattern(parse_pattern(RANGE_PATTERN)))
    without_range = cloud.env.run_process(
        lookup.lookup_pattern(parse_pattern(BASE_PATTERN)))
    assert with_range.uris == without_range.uris


def test_range_lookup_sound(lui_lookup, small_corpus):
    cloud, lookup = lui_lookup
    pattern = parse_pattern(RANGE_PATTERN)
    truth = {d.uri for d in small_corpus.documents
             if pattern_matches(pattern, d)}
    outcome = cloud.env.run_process(lookup.lookup_pattern(pattern))
    assert truth <= set(outcome.uris)


def test_evaluation_applies_range_post_lookup(lui_lookup, small_corpus):
    """Step two: the evaluator applies the predicate on the reduced set."""
    cloud, lookup = lui_lookup
    pattern = parse_pattern(RANGE_PATTERN)
    outcome = cloud.env.run_process(lookup.lookup_pattern(pattern))
    retrieved = [small_corpus.document(uri) for uri in outcome.uris]
    matched = [d.uri for d in retrieved if evaluate_pattern(pattern, d)]
    # Some retrieved documents fail the range -> real pre-filter effect,
    # and everything matching was retrieved.
    truth = {d.uri for d in small_corpus.documents
             if pattern_matches(pattern, d)}
    assert set(matched) == truth
    assert len(matched) <= len(retrieved)


def test_range_filters_strictly_somewhere(lui_lookup, small_corpus):
    """On this corpus the range is selective: the look-up really does
    over-approximate (otherwise the test corpus is too easy)."""
    cloud, lookup = lui_lookup
    pattern = parse_pattern(RANGE_PATTERN)
    outcome = cloud.env.run_process(lookup.lookup_pattern(pattern))
    truth = {d.uri for d in small_corpus.documents
             if pattern_matches(pattern, d)}
    assert len(truth) < len(outcome.uris)
