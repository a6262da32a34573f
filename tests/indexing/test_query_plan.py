"""Compiled once: one look-up plan per parsed pattern.

A :class:`~repro.indexing.lookup_plans.PatternPlan` holds what the
planners and the advisor used to derive from a pattern on every call.
Pinned here: each of its fields is exactly what the derivation
functions (kept as the compile step and as the oracles) return; a
look-up that reads a warm plan answers and charges exactly as one over
a freshly compiled plan; a closed loop parses each query text once per
warehouse and derives each pattern's shape once; and compiling leaves
the parsed query as it was.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import twig_patterns

from repro.config import ScaleProfile
from repro.engine.columnar import flatten_twig
from repro.indexing import lookup_plans
from repro.indexing.lookup_plans import (PatternPlan, expand_pattern_for_twig,
                                         pattern_lookup_keys, pattern_plan,
                                         pattern_query_paths,
                                         query_path_regex)
from repro.query.parser import query_to_source
from repro.query.workload import workload
from repro.warehouse import Warehouse, query_processor
from repro.xmark import generate_corpus

pytestmark = pytest.mark.store

STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")
PATTERNS = [pattern for query in workload() for pattern in query.patterns]


def _data_paths(path):
    """Data paths a query path may or may not match: its own keys as a
    child chain, with a segment wedged in, truncated, and re-rooted."""
    keys = [key for _, key in path]
    yield "/" + "/".join(keys)
    yield "/x/" + "/".join(keys)
    yield "/" + "/".join(keys[:1] + ["x"] + keys[1:])
    yield "/" + "/".join(keys[:-1])
    yield "/" + "/".join(reversed(keys))


def _assert_plan_matches_derivations(pattern, include_words):
    plan = pattern_plan(pattern, include_words)
    assert pattern_plan(pattern, include_words) is plan  # memoised
    keys = pattern_lookup_keys(pattern, include_words)
    paths = pattern_query_paths(pattern, include_words)
    twig = expand_pattern_for_twig(pattern, include_words)
    nodes, children = flatten_twig(twig.pattern)
    node_keys = tuple(twig.keys[id(node)] for node in nodes)

    assert plan.lookup_keys == tuple(keys)
    assert plan.paths == tuple(paths)
    assert plan.path_keys == tuple(dict.fromkeys(p[-1][1] for p in paths))
    assert plan.twig_keys == tuple(twig.unique_keys())
    assert plan.children == children
    assert plan.node_keys == node_keys
    assert plan.lu_question == ("LU", tuple(keys))
    assert plan.lup_question == ("LUP", tuple(paths))
    assert plan.twig_question == ("twig", node_keys, children)
    assert len(plan.matchers) == len(plan.prefix_matchers) == len(paths)
    for path, matches, prefix in zip(paths, plan.matchers,
                                     plan.prefix_matchers):
        regex = query_path_regex(path)
        for data_path in _data_paths(path):
            verdict = bool(regex.match(data_path))
            assert bool(matches(data_path)) == verdict
            assert bool(matches(data_path)) == verdict  # memoised
        last = path[-1][1]
        if len(path) > 1 and (last.startswith("w") or " " in last):
            structural = query_path_regex(path[:-1])
            for data_path in _data_paths(path[:-1]):
                assert bool(prefix(data_path)) == bool(
                    structural.match(data_path))
        else:
            assert prefix is None


@pytest.mark.parametrize("include_words", [True, False])
def test_workload_plans_equal_their_derivations(include_words):
    for query in workload():
        for pattern in query.patterns:
            _assert_plan_matches_derivations(pattern, include_words)


@given(twig_patterns(), st.booleans())
@settings(max_examples=100)
def test_random_plans_equal_their_derivations(pattern, include_words):
    _assert_plan_matches_derivations(pattern, include_words)


def test_plans_are_per_include_words_and_immutable():
    pattern = workload()[4].patterns[0]
    with_words = pattern_plan(pattern, True)
    assert pattern_plan(pattern, False) is not with_words
    with pytest.raises(AttributeError):
        with_words.paths = ()


def test_compiling_leaves_the_parsed_query_unchanged():
    for query in workload():
        source = query_to_source(query)
        for pattern in query.patterns:
            for include_words in (True, False):
                pattern_plan(pattern, include_words)
        assert query_to_source(query) == source, query.name


# -- look-ups over warm plans -------------------------------------------


@pytest.fixture(scope="module")
def lookups():
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=30, seed=31)))
    return warehouse, {
        name: warehouse.build_index(name).make_lookup(
            warehouse.telemetry.tracer) for name in STRATEGIES}


def _outcomes(monkeypatch, lookups, strategy, fresh):
    """Per pattern: uris, gets, rows and every PlanStats' operator rows."""
    warehouse, by_strategy = lookups
    opened = []

    class Recording(lookup_plans.PlanStats):
        def __init__(self):
            super().__init__()
            opened.append(self)

    monkeypatch.setattr(lookup_plans, "PlanStats", Recording)
    if fresh:
        monkeypatch.setattr(lookup_plans, "pattern_plan",
                            PatternPlan.compile)
    seen = []
    for pattern in PATTERNS:
        del opened[:]
        outcome = warehouse.cloud.env.run_process(
            by_strategy[strategy].lookup_pattern(pattern))
        seen.append((outcome.uris, outcome.index_gets,
                     outcome.rows_processed,
                     [dict(stats.operator_rows) for stats in opened]))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_warm_plans_answer_as_fresh_derivations(monkeypatch, lookups,
                                                strategy):
    first = _outcomes(monkeypatch, lookups, strategy, fresh=False)
    fresh = _outcomes(monkeypatch, lookups, strategy, fresh=True)
    warm = _outcomes(monkeypatch, lookups, strategy, fresh=False)
    assert first == fresh == warm
    assert any(uris for uris, *_ in warm)


# -- a closed loop compiles once ----------------------------------------


def test_a_closed_loop_parses_and_derives_once_per_pattern(monkeypatch):
    """3 passes x 4 strategies x q1-q10, one ``run_query`` at a time, as
    the closed-loop benchmark drives it."""
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=20, seed=31)))
    indexes = [warehouse.build_index(name) for name in STRATEGIES]
    calls = {"parse_query": []}
    parse = query_processor.parse_query

    def parsing(text, name=""):
        calls["parse_query"].append(name)
        return parse(text, name=name)

    monkeypatch.setattr(query_processor, "parse_query", parsing)
    for name in ("pattern_lookup_keys", "pattern_query_paths",
                 "expand_pattern_for_twig", "flatten_twig"):
        derive = getattr(lookup_plans, name)
        calls[name] = []

        def deriving(pattern, *args, _name=name, _derive=derive):
            calls[_name].append(pattern)
            return _derive(pattern, *args)

        monkeypatch.setattr(lookup_plans, name, deriving)
    queries = workload()
    for _ in range(3):
        for index in indexes:
            for query in queries:
                warehouse.run_query(query, index)
    assert sorted(calls.pop("parse_query")) == sorted(
        query.name for query in queries)
    patterns = sum(len(query.patterns) for query in queries)
    for name, derived in calls.items():
        # Each of the warehouse's parsed patterns, with words, once.
        assert len(derived) == len({id(p) for p in derived}) == patterns, \
            name
