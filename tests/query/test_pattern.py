"""Unit tests for the tree-pattern object model."""

import pytest

from repro.errors import PatternSemanticsError
from repro.query.pattern import (Axis, PatternNode, Query, TreePattern,
                                 ValueJoin)
from repro.query.predicates import Equals


def _q1_pattern():
    """Figure 2 q1: painting[/name{val}][//painter/name{val}]."""
    root = PatternNode(label="painting")
    root.add_child(PatternNode(label="name", axis=Axis.CHILD, want_val=True))
    painter = root.add_child(
        PatternNode(label="painter", axis=Axis.DESCENDANT))
    painter.add_child(PatternNode(label="name", axis=Axis.CHILD,
                                  want_val=True))
    return TreePattern(root=root)


class TestPatternNode:
    def test_empty_label_rejected(self):
        with pytest.raises(PatternSemanticsError):
            PatternNode(label="")

    def test_attribute_cannot_want_cont(self):
        with pytest.raises(PatternSemanticsError):
            PatternNode(label="id", is_attribute=True, want_cont=True)

    def test_attribute_cannot_have_children(self):
        with pytest.raises(PatternSemanticsError):
            PatternNode(label="id", is_attribute=True,
                        children=[PatternNode(label="x")])

    def test_display_label(self):
        assert PatternNode(label="id", is_attribute=True).display_label \
            == "@id"
        assert PatternNode(label="name").display_label == "name"


class TestTreePattern:
    def test_attribute_root_rejected(self):
        with pytest.raises(PatternSemanticsError):
            TreePattern(root=PatternNode(label="id", is_attribute=True))

    def test_node_count(self):
        assert _q1_pattern().node_count() == 4

    def test_iter_preorder(self):
        labels = [n.label for n in _q1_pattern().iter_nodes()]
        assert labels == ["painting", "name", "painter", "name"]

    def test_root_to_leaf_paths(self):
        paths = _q1_pattern().root_to_leaf_paths()
        rendered = ["".join(axis.value + node.label for axis, node in path)
                    for path in paths]
        assert rendered == ["//painting/name", "//painting//painter/name"]

    def test_find_variable(self):
        pattern = _q1_pattern()
        pattern.root.children[0].variable = "n"
        assert pattern.find_variable("n") is pattern.root.children[0]
        assert pattern.find_variable("missing") is None


class TestQuery:
    def test_needs_a_pattern(self):
        with pytest.raises(PatternSemanticsError):
            Query(patterns=[])

    def test_single_pattern_helper(self):
        query = Query(patterns=[TreePattern(root=PatternNode(label="a"))],
                      name="t")
        assert query.is_single_pattern
        assert not query.has_value_joins
        assert query.name == "t"

    def test_duplicate_variable_rejected(self):
        left = PatternNode(label="a", variable="x")
        right = PatternNode(label="b", variable="x")
        with pytest.raises(PatternSemanticsError):
            Query(patterns=[TreePattern(root=left),
                            TreePattern(root=right)])

    def test_join_on_unbound_variable_rejected(self):
        pattern = TreePattern(root=PatternNode(label="a", variable="x"))
        with pytest.raises(PatternSemanticsError):
            Query(patterns=[pattern], joins=[ValueJoin("x", "missing")])

    def test_variable_owner(self):
        left = TreePattern(root=PatternNode(label="a", variable="x"))
        right = TreePattern(root=PatternNode(label="b", variable="y"))
        query = Query(patterns=[left, right], joins=[ValueJoin("x", "y")])
        index, node = query.variable_owner("y")
        assert index == 1
        assert node.label == "b"
        with pytest.raises(PatternSemanticsError):
            query.variable_owner("z")

    def test_node_count_sums_patterns(self):
        left = TreePattern(root=PatternNode(label="a", variable="x"))
        query = Query(patterns=[left, _q1_pattern()],
                      joins=[])
        assert query.node_count() == 5


def test_str_round_trips_display():
    pattern = _q1_pattern()
    pattern.root.predicate = Equals("x")
    text = str(pattern)
    assert text.startswith("//painting")
    assert '="x"' in text
    assert "{val}" in text
