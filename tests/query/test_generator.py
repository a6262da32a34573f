"""Unit tests for the random query generator — plus a generated-workload
stress test of the look-up invariants over the real corpus."""

import pytest

from repro.cloud import CloudProvider
from repro.engine.evaluator import pattern_matches
from repro.errors import ConfigError
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import all_strategies
from tests.query_generator import QueryGenerator
from repro.query.parser import parse_query, query_to_source
from repro.xmldb.stats import CorpusStats


@pytest.fixture(scope="module")
def generator(small_corpus):
    return QueryGenerator(small_corpus.stats(), seed=5)


def test_empty_stats_rejected():
    with pytest.raises(ConfigError):
        QueryGenerator(CorpusStats())


def test_deterministic_for_seed(small_corpus):
    stats = small_corpus.stats()
    first = [str(q) for q in QueryGenerator(stats, seed=9).workload(8)]
    second = [str(q) for q in QueryGenerator(stats, seed=9).workload(8)]
    assert first == second
    third = [str(q) for q in QueryGenerator(stats, seed=10).workload(8)]
    assert first != third


def test_generated_queries_are_well_formed(generator):
    for query in generator.workload(20):
        assert query.node_count() >= 1
        annotated = [n for p in query.patterns for n in p.iter_nodes()
                     if n.want_val or n.want_cont or n.variable]
        assert annotated, str(query)
        # The textual round-trip holds for generated queries too.
        reparsed = parse_query(query_to_source(query))
        assert query_to_source(reparsed) == query_to_source(query)


def test_patterns_follow_real_paths(generator, small_corpus):
    """Single-pattern queries are satisfiable on the corpus most of the
    time (structural skeletons come from actual data paths; predicates
    may empty them, which is fine)."""
    satisfied = 0
    singles = 0
    for query in generator.workload(25):
        if not query.is_single_pattern:
            continue
        singles += 1
        pattern = query.patterns[0]
        if any(pattern_matches(pattern, d)
               for d in small_corpus.documents):
            satisfied += 1
    assert singles > 0
    assert satisfied >= singles * 0.5, \
        "{}/{} generated patterns satisfiable".format(satisfied, singles)


def test_join_queries_use_reference_attributes(small_corpus):
    generator = QueryGenerator(small_corpus.stats(), seed=2)
    joins = [q for q in (generator.query(join_probability=1.0)
                         for _ in range(10)) if q.has_value_joins]
    assert joins, "join_probability=1.0 should produce join queries"
    for query in joins:
        assert len(query.patterns) == 2
        assert len(query.joins) == 1


def test_lookup_invariants_hold_on_generated_workload(small_corpus,
                                                      generator):
    """The Table 5 invariants survive 12 random queries — the look-up
    planners are not overfit to the hand-written workload."""
    cloud = CloudProvider()
    store = DynamoIndexStore(cloud.dynamodb, seed=3)
    lookups = {}
    for strategy in all_strategies():
        tables = {lt: "gen-{}-{}".format(strategy.name, lt)
                  for lt in strategy.logical_tables}
        for physical in tables.values():
            store.create_table(physical)

        def load(strategy=strategy, tables=tables):
            for document in small_corpus.documents:
                for logical, entries in strategy.extract(document).items():
                    if entries:
                        yield from store.write_entries(tables[logical],
                                                       entries)
        cloud.env.run_process(load())
        lookups[strategy.name] = strategy.make_lookup(
            store, tables, cloud.telemetry.tracer)

    for query in generator.workload(12):
        for pattern in query.patterns:
            truth = {d.uri for d in small_corpus.documents
                     if pattern_matches(pattern, d)}
            outcomes = {}
            for name, lookup in lookups.items():
                def run(lookup=lookup, pattern=pattern):
                    return (yield from lookup.lookup_pattern(pattern))
                outcomes[name] = cloud.env.run_process(run())
            for name, outcome in outcomes.items():
                assert truth <= set(outcome.uris), \
                    "{} missed documents on {}".format(name, query)
            assert set(outcomes["LUP"].uris) <= set(outcomes["LU"].uris)
            assert set(outcomes["LUI"].uris) <= set(outcomes["LUP"].uris)
            assert outcomes["LUI"].uris == outcomes["2LUPI"].uris
