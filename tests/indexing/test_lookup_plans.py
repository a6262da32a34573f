"""Unit tests for the four look-up planners (§5.1-§5.4).

The central invariants, checked on the small generated corpus:

- **soundness** — no look-up ever misses a document that contains a
  match;
- **precision ordering** — LU ⊇ LUP ⊇ LUI = 2LUPI;
- **LUI exactness** — for tree patterns without range predicates, LUI
  returns exactly the matching documents.
"""

import pytest

from repro.cloud import CloudProvider
from repro.engine.evaluator import pattern_matches
from repro.indexing.lookup_plans import (expand_pattern_for_twig,
                                         pattern_lookup_keys,
                                         pattern_query_paths,
                                         query_path_regex)
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import all_strategies
from repro.query.parser import parse_pattern, parse_query
from repro.query.pattern import Axis

PATTERNS = [
    '//person[/name{val}][/address/city contains("Tokyo")]',
    '//item[/name contains("gold")][//incategory/@category{val}]',
    '//item/mailbox/mail/from{val}',
    '//open_auction[/initial in(100, 200)][/itemref/@item{val}]',
    '//closed_auction[/buyer/@person{val}][/price{val}]',
    '//person[/@id="person3"]',
]


@pytest.fixture(scope="module")
def indexed(small_corpus):
    """All four indexes over the small corpus, in one DynamoDB."""
    cloud = CloudProvider()
    store = DynamoIndexStore(cloud.dynamodb, seed=2)
    lookups = {}
    for s in all_strategies():
        tables = {lt: "{}-{}".format(s.name, lt) for lt in s.logical_tables}
        for physical in tables.values():
            store.create_table(physical)

        def load(s=s, tables=tables):
            for document in small_corpus.documents:
                for logical, entries in s.extract(document).items():
                    if entries:
                        yield from store.write_entries(
                            tables[logical], entries)
        cloud.env.run_process(load())
        lookups[s.name] = s.make_lookup(store, tables,
                                        cloud.telemetry.tracer)
    return cloud, lookups


def _lookup(cloud, lookup, pattern):
    return cloud.env.run_process(lookup.lookup_pattern(pattern))


class TestKeyExtraction:
    def test_element_and_word_keys(self):
        pattern = parse_pattern('//painting[/name contains("Lion")]')
        assert pattern_lookup_keys(pattern, include_words=True) == \
            ["epainting", "ename", "wlion"]

    def test_words_skipped_when_index_has_none(self):
        pattern = parse_pattern('//painting[/name contains("Lion")]')
        assert pattern_lookup_keys(pattern, include_words=False) == \
            ["epainting", "ename"]

    def test_attribute_equality_refines_key(self):
        pattern = parse_pattern('//painting[/@id="1863-1"]')
        assert "aid 1863-1" in pattern_lookup_keys(pattern, True)
        assert "aid" not in pattern_lookup_keys(pattern, True)

    def test_range_contributes_nothing(self):
        pattern = parse_pattern("//a[/year in(1, 2)]")
        assert pattern_lookup_keys(pattern, True) == ["ea", "eyear"]

    def test_equality_constant_words_included(self):
        pattern = parse_pattern('//a[/name="The Lion"]')
        keys = pattern_lookup_keys(pattern, True)
        assert "wthe" in keys and "wlion" in keys


class TestQueryPaths:
    def test_branch_paths(self):
        pattern = parse_pattern("//painting[/name][//painter/name]")
        paths = pattern_query_paths(pattern, include_words=True)
        rendered = ["".join(a.value + k for a, k in p) for p in paths]
        assert rendered == ["//epainting/ename",
                            "//epainting//epainter/ename"]

    def test_word_predicate_extends_path(self):
        pattern = parse_pattern('//painting[/name contains("Lion")]')
        paths = pattern_query_paths(pattern, include_words=True)
        assert any(p[-1][1] == "wlion" and p[-1][0] is Axis.DESCENDANT
                   for p in paths)

    def test_internal_word_predicate_emits_extra_path(self):
        pattern = parse_pattern('//a[/b contains("x")/c]')
        paths = pattern_query_paths(pattern, include_words=True)
        last_keys = {p[-1][1] for p in paths}
        assert {"ec", "wx"} <= last_keys


class TestPathRegex:
    def test_child_axis_single_segment(self):
        regex = query_path_regex(((Axis.DESCENDANT, "ea"), (Axis.CHILD, "eb")))
        assert regex.match("/ea/eb")
        assert regex.match("/ex/ea/eb")
        assert not regex.match("/ea/ex/eb")

    def test_descendant_axis_any_depth(self):
        regex = query_path_regex(
            ((Axis.DESCENDANT, "ea"), (Axis.DESCENDANT, "eb")))
        assert regex.match("/ea/eb")
        assert regex.match("/ea/ex/ey/eb")
        assert not regex.match("/eb/ea")

    def test_keys_with_spaces_escaped(self):
        regex = query_path_regex(((Axis.DESCENDANT, "aid 1863-1"),))
        assert regex.match("/epainting/aid 1863-1")
        assert not regex.match("/epainting/aid 1863-2")


class TestTwigExpansion:
    def test_word_leaves_added(self):
        pattern = parse_pattern('//a[/b contains("lion")]')
        twig = expand_pattern_for_twig(pattern, include_words=True)
        keys = set(twig.keys.values())
        assert keys == {"ea", "eb", "wlion"}
        assert twig.pattern.node_count() == 3

    def test_no_word_leaves_without_full_text(self):
        pattern = parse_pattern('//a[/b contains("lion")]')
        twig = expand_pattern_for_twig(pattern, include_words=False)
        assert set(twig.keys.values()) == {"ea", "eb"}

    def test_clone_has_no_predicates(self):
        pattern = parse_pattern('//a[/b="x"]')
        twig = expand_pattern_for_twig(pattern, include_words=True)
        assert all(n.predicate is None for n in twig.pattern.iter_nodes())


class TestLookupInvariants:
    @pytest.mark.parametrize("text", PATTERNS)
    def test_soundness_and_ordering(self, indexed, small_corpus, text):
        cloud, lookups = indexed
        pattern = parse_pattern(text)
        truth = {d.uri for d in small_corpus.documents
                 if pattern_matches(pattern, d)}
        results = {name: _lookup(cloud, lookup, pattern)
                   for name, lookup in lookups.items()}
        for name, outcome in results.items():
            assert truth <= set(outcome.uris), \
                "{} missed documents on {}".format(name, text)
        assert set(results["LUP"].uris) <= set(results["LU"].uris)
        assert set(results["LUI"].uris) <= set(results["LUP"].uris)
        assert results["LUI"].uris == results["2LUPI"].uris

    @pytest.mark.parametrize("text", [
        '//person[/name{val}][/address/city contains("Tokyo")]',
        "//item/mailbox/mail/from{val}",
        '//person[/@id="person3"]',
    ])
    def test_lui_exact_for_tree_patterns(self, indexed, small_corpus, text):
        cloud, lookups = indexed
        pattern = parse_pattern(text)
        truth = sorted(d.uri for d in small_corpus.documents
                       if pattern_matches(pattern, d))
        outcome = _lookup(cloud, lookups["LUI"], pattern)
        assert outcome.uris == truth

    def test_lookup_query_sums_patterns(self, indexed):
        cloud, lookups = indexed
        query = parse_query(
            "//person[/@id{$p}] ; //closed_auction[/buyer/@person{$b}] "
            "join $p = $b")

        def scenario():
            return (yield from lookups["LU"].lookup_query(query))
        outcome = cloud.env.run_process(scenario())
        assert len(outcome.per_pattern) == 2
        assert outcome.index_gets == \
            sum(o.index_gets for o in outcome.per_pattern)

    def test_gets_counted(self, indexed):
        cloud, lookups = indexed
        pattern = parse_pattern("//item/mailbox/mail")
        outcome = _lookup(cloud, lookups["LU"], pattern)
        assert outcome.index_gets == 3  # eitem, emailbox, email
        lup_outcome = _lookup(cloud, lookups["LUP"], pattern)
        assert lup_outcome.index_gets == 1  # one root-to-leaf path
