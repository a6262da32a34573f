"""Property-based tests: look-up soundness over random documents.

For any random document set and any pattern from the grammar, no
strategy's look-up may miss a matching document, the precision ordering
LU ⊇ LUP ⊇ LUI must hold, and LUI must equal 2LUPI — the §5 invariants,
hammered with generated inputs rather than the fixed corpus.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents, twig_patterns

from repro.cloud import CloudProvider
from repro.engine.evaluator import pattern_matches
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing import lookup_plans
from repro.indexing.lui import LUIStrategy
from repro.indexing.lup import LUPStrategy
from repro.indexing.registry import all_strategies
from repro.indexing.two_lupi import TwoLUPIStrategy
from repro.query.parser import parse_pattern
from repro.sim import Environment
from repro.telemetry import Tracer

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
        lookup = strategy.make_lookup(store, tables, cloud.telemetry.tracer)

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


class _PathStore:
    """The least store an LUP look-up reads: key -> uri -> data paths,
    answering the store contract's two questions the look-up asks."""

    coalesce_reads = False
    answer_memo = None

    def __init__(self, data):
        self._data = data

    def read_key(self, table, key, kind):
        assert kind == "paths"
        return self._data.get(key, {}), 1
        yield  # pragma: no cover - a generator, like the real stores


@given(twig_patterns(), st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_memoised_path_filter_equals_the_plain_loop(pattern, seed):
    """One regex verdict per distinct data path returns the URIs, and
    charges the ``path-filter`` rows, of matching every data path of
    every document — on random query paths and data-path multisets
    (repeats within a document, across documents and across keys)."""
    paths = lookup_plans.pattern_query_paths(pattern, include_words=True)
    rng = random.Random(seed)
    steps = sorted({key for path in paths for _, key in path}) + ["ex"]
    pool = ["/" + "/".join(rng.choice(steps)
                           for _ in range(rng.randint(1, 4)))
            for _ in range(12)]
    pool += ["/" + "/".join(key for _, key in path) for path in paths]
    data = {key: {"doc{}.xml".format(number): rng.choices(
                      pool, k=rng.randint(0, 5))
                  for number in rng.sample(range(8), rng.randint(0, 8))}
            for key in {path[-1][1] for path in paths}}

    per_path, rows = [], 0
    for path in paths:
        regex = lookup_plans.query_path_regex(path)
        payloads = data[path[-1][1]]
        rows += sum(map(len, payloads.values()))
        per_path.append({uri for uri in payloads if any(
            regex.match(data_path) for data_path in payloads[uri])})
    expected = sorted(set.intersection(*per_path))

    opened = []

    class Recording(lookup_plans.PlanStats):
        def __init__(self):
            super().__init__()
            opened.append(self)

    with mock.patch.object(lookup_plans, "PlanStats", Recording):
        lookup = lookup_plans.LUPLookup(_PathStore(data), "t",
                                        Tracer(Environment()))
        try:
            next(lookup.lookup_pattern(pattern))
        except StopIteration as stop:
            outcome = stop.value
    assert outcome.uris == expected
    assert outcome.index_gets == len(data)
    (stats,) = opened
    assert stats.operator_rows.get("path-filter", 0) == rows
    assert ("path-filter" in stats.operator_rows) == any(
        data[path[-1][1]] for path in paths)
    assert outcome.rows_processed == rows + sum(map(len, per_path))
