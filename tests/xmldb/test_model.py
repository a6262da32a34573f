"""Unit tests for the XML tree model and its numbering walk.

The identifier expectations are the exact tuples printed in the paper's
§5 index examples (Figure 3's documents), read through
:func:`~repro.xmldb.model.number_nodes`: a model node stores no
identifier or path of its own.
"""

import pytest

from tests.model_helpers import (elements_by_label, node_ids, node_paths,
                                 text_children)

from repro.errors import XMLError
from repro.xmldb.ids import NodeID
from repro.xmldb.model import (Attribute, Document, Element, Text,
                               number_nodes)
from repro.xmldb.parser import parse_document


class TestPaperIdentifiers:
    """Figure 3 / §5 printed IDs, checked one by one."""

    def test_root_painting(self, manet):
        assert node_ids(manet)[id(manet.root)] == NodeID(1, 10, 1)

    def test_attribute_id(self, manet):
        # "aid 1863-1" -> (2, 1, 2) in the LUI example.
        assert node_ids(manet)[id(manet.root.attributes[0])] == \
            NodeID(2, 1, 2)

    def test_painting_name(self, manet):
        # "ename" -> (3, 3, 2)(6, 8, 3).
        ids = node_ids(manet)
        names = elements_by_label(manet, "name")
        assert [ids[id(n)] for n in names] == [NodeID(3, 3, 2),
                                               NodeID(6, 8, 3)]

    def test_word_gets_text_node_id(self, manet):
        # "wOlympia" -> (4, 2, 3).
        name = elements_by_label(manet, "name")[0]
        assert node_ids(manet)[id(text_children(name)[0])] == \
            NodeID(4, 2, 3)

    def test_both_documents_same_structure_same_ids(self, delacroix, manet):
        assert [i for _, i, _ in number_nodes(delacroix)] == \
            [i for _, i, _ in number_nodes(manet)]


class TestPaths:
    def test_element_paths(self, manet):
        paths = node_paths(manet)
        names = elements_by_label(manet, "name")
        assert paths[id(names[0])] == "/epainting/ename"
        assert paths[id(names[1])] == "/epainting/epainter/ename"

    def test_attribute_path(self, manet):
        assert node_paths(manet)[id(manet.root.attributes[0])] == \
            "/epainting/aid"

    def test_text_parent_path(self, manet):
        name = elements_by_label(manet, "name")[0]
        assert node_paths(manet)[id(text_children(name)[0])] == \
            "/epainting/ename"


def test_figure3_numbering_printed(manet):
    """Figure 3's manet.xml, every node's printed ID and path in the
    walk's order: attributes first, one node per text run."""
    assert [(id_.as_text(), path) for _, id_, path in number_nodes(manet)] \
        == [("(1, 10, 1)", "/epainting"),
            ("(2, 1, 2)", "/epainting/aid"),
            ("(3, 3, 2)", "/epainting/ename"),
            ("(4, 2, 3)", "/epainting/ename"),
            ("(5, 9, 2)", "/epainting/epainter"),
            ("(6, 8, 3)", "/epainting/epainter/ename"),
            ("(7, 5, 4)", "/epainting/epainter/ename/efirst"),
            ("(8, 4, 5)", "/epainting/epainter/ename/efirst"),
            ("(9, 7, 4)", "/epainting/epainter/ename/elast"),
            ("(10, 6, 5)", "/epainting/epainter/ename/elast")]


class TestStringValue:
    def test_leaf_value(self, manet):
        assert elements_by_label(manet, "name")[0].string_value() == \
            "Olympia"

    def test_concatenates_descendant_text(self, manet):
        # painter/name has first + last text descendants.
        painter_name = elements_by_label(manet, "name")[1]
        assert painter_name.string_value() == "EdouardManet"

    def test_mixed_content(self):
        root = Element(label="p")
        root.add(Text(value="before "))
        bold = Element(label="b")
        bold.add(Text(value="middle"))
        root.add(bold)
        root.add(Text(value=" after"))
        assert root.string_value() == "before middle after"


class TestNavigation:
    def test_child_elements_and_texts(self, manet):
        children = manet.root.child_elements()
        assert [c.label for c in children] == ["name", "painter"]
        assert text_children(manet.root) == []

    def test_attribute_lookup(self, manet):
        assert manet.root.attribute("id").value == "1863-1"
        assert manet.root.attribute("missing") is None

    def test_node_count(self, manet):
        # painting, @id, name, text, painter, name, first, text,
        # last, text = 10 nodes.
        assert manet.node_count() == 10

    def test_iter_subtree_order(self, manet):
        """``iter_nodes`` walks in the numbering's (pre) order."""
        assert [id(n) for n in manet.iter_nodes()] == \
            [id(n) for n, _, _ in number_nodes(manet)]
        pres = [i.pre for _, i, _ in number_nodes(manet)]
        assert pres == list(range(1, 11))

    def test_elements_by_label(self, manet):
        assert len(elements_by_label(manet, "name")) == 2
        assert len(elements_by_label(manet, "museum")) == 0


class TestBuilders:
    def test_add_returns_child(self):
        root = Element(label="a")
        child = root.add(Element(label="b"))
        assert child in root.children

    def test_set_attribute_returns_attribute(self):
        root = Element(label="a")
        attr = root.set_attribute("k", "v")
        assert attr.name == "k"
        assert root.attribute("k") is attr

    def test_numbering_rejects_foreign_children(self):
        root = Element(label="a")
        root.children.append(object())
        with pytest.raises(XMLError):
            list(number_nodes(Document(uri="x", root=root)))


class TestLeanNodes:
    """A node holds only what queries read: no ``__dict__``, one shared
    empty attribute tuple, and ``==`` over structure."""

    def test_nodes_have_no_dict(self, manet):
        for node in manet.iter_nodes():
            assert not hasattr(node, "__dict__")
        assert {type(n) for n in manet.iter_nodes()} == \
            {Element, Attribute, Text}

    def test_elements_without_attributes_share_one_tuple(self):
        first, second = Element(label="a"), Element(label="b")
        assert first.attributes == () and first.attributes is \
            second.attributes
        first.set_attribute("k", "v")
        assert [a.name for a in first.attributes] == ["k"]
        assert second.attributes == ()

    def test_equality_is_structural(self):
        def build():
            root = Element(label="a")
            root.set_attribute("k", "v")
            root.add(Element(label="b")).add(Text(value="t"))
            return root

        assert build() == build()
        changed = build()
        changed.children[0].children[0].value = "u"
        assert build() != changed
        assert Attribute(name="k", value="v") != Text(value="v")
        assert repr(Text(value="t")) == "Text(value='t')"

    def test_repr_spells_every_slot_as_a_dataclass_would(self):
        root = Element(label="a")
        root.set_attribute("k", "v")
        root.add(Text("t"))
        root.add(Element(label="b"))
        assert repr(root) == (
            "Element(label='a', attributes=[Attribute(name='k', "
            "value='v')], children=[Text(value='t'), Element(label='b', "
            "attributes=(), children=[])])")


DEPTH = 3000


def _deep(text):
    """A parsed document nested ``DEPTH`` elements deep."""
    return parse_document(
        "<a>" * DEPTH + text + "</a>" * DEPTH, "deep.xml")


class TestDeepDocuments:
    """``==`` and ``repr`` walk an explicit stack, as the other walks do."""

    def test_equal_deep_documents_compare_equal(self):
        assert _deep("x") == _deep("x")

    def test_deep_documents_differing_in_the_deepest_text_differ(self):
        assert _deep("x") != _deep("y")
        assert _deep("x").root != _deep("y").root

    def test_repr_of_a_deep_document_returns(self):
        text = repr(_deep("x"))
        assert text.count("Element(label='a'") == DEPTH
        assert "Text(value='x')" in text


def test_post_order_completion():
    """post increases in completion order: deepest-first."""
    root = Element(label="a")
    b = root.add(Element(label="b"))
    b.add(Element(label="c"))
    root.add(Element(label="d"))
    document = Document(uri="t", root=root)
    by_label = {node.label: node_id
                for node, node_id, _ in number_nodes(document)}
    assert by_label["c"].post < by_label["b"].post < by_label["d"].post \
        < by_label["a"].post
