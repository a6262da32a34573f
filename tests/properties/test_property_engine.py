"""Property-based tests: the row join oracles agree with brute force
and with direct evaluation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.engine.oracles import HolisticTwigJoin, stack_tree_join
from tests.indexing.extraction_oracle import collect_occurrences
from tests.properties.strategies import documents

from repro.engine.evaluator import pattern_matches
from repro.indexing.keys import element_key
from repro.query.parser import parse_pattern
from repro.query.pattern import Axis

#: Structural-only patterns over the property alphabet.
PATTERN_TEXTS = (
    "//a", "//a/b", "//a//b", "//a[/b][/c]", "//a[/b][//c/d]",
    "//item//name", "//a/b/c", "//a[//b][//c][//d]",
)


@given(documents(), st.sampled_from(PATTERN_TEXTS))
@settings(max_examples=120)
def test_twig_join_agrees_with_evaluator(document, pattern_text):
    """The holistic twig join over extracted ID streams decides document
    membership exactly like direct evaluation — the LUI correctness
    property."""
    pattern = parse_pattern(pattern_text)
    occurrences = collect_occurrences(document, include_words=False)
    streams = {}
    for node in pattern.iter_nodes():
        group = occurrences.get(element_key(node.label))
        streams[id(node)] = list(group.ids) if group else []
    twig_answer = HolisticTwigJoin(pattern, streams).matches()
    direct_answer = pattern_matches(pattern, document)
    assert twig_answer == direct_answer


@given(documents())
@settings(max_examples=60)
def test_structural_join_matches_cross_product(document):
    ids = sorted((e.node_id for e in document.iter_elements()),
                 key=lambda n: n.pre)
    left = ids[::2]
    right = ids[1::2]
    expected = sorted(
        ((a, d) for d in right for a in left if a.is_ancestor_of(d)),
        key=lambda pair: (pair[1].pre, pair[0].pre))
    assert stack_tree_join(left, right) == expected


@given(documents())
@settings(max_examples=60)
def test_parent_child_join_is_subset_of_descendant_join(document):
    ids = sorted((e.node_id for e in document.iter_elements()),
                 key=lambda n: n.pre)
    left, right = ids[::2], ids[1::2]
    loose = set(stack_tree_join(left, right))
    strict = set(stack_tree_join(left, right, parent_child=True))
    assert strict <= loose
    assert all(a.depth + 1 == d.depth for a, d in strict)


@given(documents(), st.sampled_from(PATTERN_TEXTS))
@settings(max_examples=80)
def test_twig_matching_roots_really_match(document, pattern_text):
    """Every root the twig join reports can be verified structurally."""
    pattern = parse_pattern(pattern_text)
    occurrences = collect_occurrences(document, include_words=False)
    streams = {}
    for node in pattern.iter_nodes():
        group = occurrences.get(element_key(node.label))
        streams[id(node)] = list(group.ids) if group else []
    join = HolisticTwigJoin(pattern, streams)

    def subtree_matches(pattern_node, node_id):
        for child in pattern_node.children:
            child_ids = streams[id(child)]
            if child.axis is Axis.CHILD:
                candidates = [c for c in child_ids
                              if node_id.is_parent_of(c)]
            else:
                candidates = [c for c in child_ids
                              if node_id.is_ancestor_of(c)]
            if not any(subtree_matches(child, c) for c in candidates):
                return False
        return True

    for root_id in join.matching_roots():
        assert subtree_matches(pattern.root, root_id)
