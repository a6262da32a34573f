"""Unit tests for (pre, post, depth) structural identifiers."""

from tests.model_helpers import follows, is_child_of, is_descendant_of

from repro.xmldb.ids import NodeID


def test_ancestor_relation():
    # name (3,3,2) is an ancestor of its text node (4,2,3) — Figure 3.
    name = NodeID(3, 3, 2)
    text = NodeID(4, 2, 3)
    assert name.is_ancestor_of(text)
    assert is_descendant_of(text, name)
    assert not text.is_ancestor_of(name)


def test_parent_requires_adjacent_depth():
    painting = NodeID(1, 10, 1)
    name = NodeID(3, 3, 2)
    text = NodeID(4, 2, 3)
    assert painting.is_parent_of(name)
    assert not painting.is_parent_of(text)  # ancestor but not parent
    assert name.is_parent_of(text)
    assert is_child_of(text, name)


def test_self_is_not_ancestor():
    node = NodeID(2, 2, 2)
    assert not node.is_ancestor_of(node)


def test_siblings_not_related():
    first = NodeID(2, 1, 2)
    second = NodeID(3, 2, 2)
    assert not first.is_ancestor_of(second)
    assert not second.is_ancestor_of(first)
    assert follows(second, first)
    assert not follows(first, second)


def test_sorting_is_document_order():
    ids = [NodeID(6, 8, 3), NodeID(1, 10, 1), NodeID(3, 3, 2)]
    assert sorted(ids) == [NodeID(1, 10, 1), NodeID(3, 3, 2),
                           NodeID(6, 8, 3)]


def test_as_text_matches_paper_format():
    assert NodeID(3, 3, 2).as_text() == "(3, 3, 2)"


def test_named_tuple_fields():
    node = NodeID(pre=5, post=7, depth=2)
    assert (node.pre, node.post, node.depth) == (5, 7, 2)
    assert node == (5, 7, 2)
