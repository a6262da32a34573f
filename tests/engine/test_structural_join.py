"""Unit tests for the stack-based binary structural join [3]: the row
oracle, and the columnar semi-join kernels on the paper's example."""

import pytest

from tests.engine.oracles import stack_tree_join

from repro.engine.columnar import (block_semi_join_ancestors,
                                   block_semi_join_descendants)
from repro.errors import EvaluationError
from repro.xmldb.ids import NodeID


def _ids(document, label):
    return [e.node_id for e in document.elements_by_label(label)]


def test_simple_ancestor_descendant(manet):
    paintings = _ids(manet, "painting")
    names = _ids(manet, "name")
    pairs = stack_tree_join(paintings, names)
    assert len(pairs) == 2
    assert all(a.is_ancestor_of(d) for a, d in pairs)


def test_parent_child_filters_depth(manet):
    paintings = _ids(manet, "painting")
    names = _ids(manet, "name")
    pairs = stack_tree_join(paintings, names, parent_child=True)
    # Only the direct painting/name, not painting//painter/name.
    assert len(pairs) == 1
    assert pairs[0][1] == NodeID(3, 3, 2)


def test_nested_ancestors_all_pair():
    # a(1..) contains b(2..) contains c(3).
    ancestors = [NodeID(1, 3, 1), NodeID(2, 2, 2)]
    descendants = [NodeID(3, 1, 3)]
    pairs = stack_tree_join(ancestors, descendants)
    assert len(pairs) == 2
    assert {a.pre for a, _ in pairs} == {1, 2}


def test_empty_inputs():
    assert stack_tree_join([], [NodeID(1, 1, 1)]) == []
    assert stack_tree_join([NodeID(1, 1, 1)], []) == []


def test_no_matches_between_siblings():
    left = [NodeID(1, 1, 2)]
    right = [NodeID(2, 2, 2)]
    assert stack_tree_join(left, right) == []


def test_unsorted_input_rejected():
    bad = [NodeID(5, 5, 1), NodeID(2, 2, 1)]
    good = [NodeID(3, 1, 2)]
    with pytest.raises(EvaluationError):
        stack_tree_join(bad, good)
    with pytest.raises(EvaluationError):
        stack_tree_join(good, bad)


def test_output_sorted_by_descendant():
    ancestors = [NodeID(1, 10, 1), NodeID(2, 5, 2)]
    descendants = [NodeID(3, 2, 3), NodeID(4, 3, 3), NodeID(6, 8, 2)]
    pairs = stack_tree_join(ancestors, descendants)
    descendant_pres = [d.pre for _, d in pairs]
    assert descendant_pres == sorted(descendant_pres)


def test_semi_join_descendants_dedupes(manet):
    paintings = _ids(manet, "painting")
    names = _ids(manet, "name")
    result = block_semi_join_descendants(paintings, names).to_ids()
    assert result == sorted(names)


def test_semi_join_ancestors(manet):
    names = _ids(manet, "name")
    firsts = _ids(manet, "first")
    result = block_semi_join_ancestors(names, firsts).to_ids()
    # Only painter/name contains a first.
    assert result == [NodeID(6, 8, 3)]


def test_matches_naive_cross_product():
    import random
    rng = random.Random(4)
    # Build a random tree's IDs via a random document.
    from repro.config import ScaleProfile
    from repro.xmark import generate_corpus
    corpus = generate_corpus(ScaleProfile(documents=6, seed=5))
    document = rng.choice(corpus.documents)
    all_ids = sorted(
        (e.node_id for e in document.iter_elements()),
        key=lambda n: n.pre)
    half_a = all_ids[::2]
    half_b = all_ids[1::2]
    expected = [(a, d) for d in half_b for a in half_a
                if a.is_ancestor_of(d)]
    expected.sort(key=lambda pair: (pair[1].pre, pair[0].pre))
    actual = stack_tree_join(half_a, half_b)
    assert actual == expected
