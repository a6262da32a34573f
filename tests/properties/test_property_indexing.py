"""Property-based tests: look-up soundness over random documents.

For any random document set and any pattern from the grammar, no
strategy's look-up may miss a matching document, the precision ordering
LU ⊇ LUP ⊇ LUI must hold, and LUI must equal 2LUPI — the §5 invariants,
hammered with generated inputs rather than the fixed corpus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents

from repro.cloud import CloudProvider
from repro.engine.evaluator import pattern_matches
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.lui import LUIStrategy
from repro.indexing.lup import LUPStrategy
from repro.indexing.registry import all_strategies
from repro.indexing.two_lupi import TwoLUPIStrategy
from repro.query.parser import parse_pattern

PATTERN_TEXTS = (
    "//a[/b][/c]",
    "//a//b",
    "//item/name",
    '//a[/b contains("gold")]',
    '//a[/@id="x1"]',
    "//a[/b in(1, 2)]",
    '//name contains("lion")',
)


@given(st.lists(documents(), min_size=1, max_size=4),
       st.sampled_from(PATTERN_TEXTS))
@settings(max_examples=40, deadline=None)
def test_lookup_soundness_and_ordering(docs, pattern_text):
    # Distinct URIs per document.
    for index, document in enumerate(docs):
        document.uri = "doc{}.xml".format(index)
    pattern = parse_pattern(pattern_text)
    truth = {d.uri for d in docs if pattern_matches(pattern, d)}

    cloud = CloudProvider()
    store = DynamoIndexStore(cloud.dynamodb, seed=0)
    results = {}
    for strategy in all_strategies():
        tables = {lt: "{}-{}".format(strategy.name, lt)
                  for lt in strategy.logical_tables}
        for physical in tables.values():
            store.create_table(physical)

        def load(strategy=strategy, tables=tables):
            for document in docs:
                for logical, entries in strategy.extract(document).items():
                    if entries:
                        yield from store.write_entries(tables[logical],
                                                       entries)
        cloud.env.run_process(load())
        lookup = strategy.make_lookup(store, tables)

        def run(lookup=lookup):
            return (yield from lookup.lookup_pattern(pattern))
        results[strategy.name] = cloud.env.run_process(run())

    for name, outcome in results.items():
        assert truth <= set(outcome.uris), \
            "{} missed {} on {}".format(
                name, truth - set(outcome.uris), pattern_text)
    assert set(results["LUP"].uris) <= set(results["LU"].uris)
    assert set(results["LUI"].uris) <= set(results["LUP"].uris)
    assert results["LUI"].uris == results["2LUPI"].uris


@given(documents(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_two_lupi_is_lup_plus_lui_entry_for_entry(document, include_words):
    """2LUPI's single walk projects exactly what the two sub-strategies
    extract on their own — same entries, same order, same tables."""
    both = TwoLUPIStrategy(include_words=include_words).extract(document)
    apart = {**LUPStrategy(include_words=include_words).extract(document),
             **LUIStrategy(include_words=include_words).extract(document)}
    assert list(both) == list(apart) == ["lup", "lui"]
    assert both == apart
    assert [entry.key for entry in both["lup"]] \
        == [entry.key for entry in both["lui"]]
