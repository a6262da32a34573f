"""Property-based tests: XML model, identifiers, serialization."""

from hypothesis import given, settings

from tests.model_helpers import node_ids, node_paths
from tests.properties.strategies import documents, tricky_text

from repro.xmldb.model import Document, Element, Text, number_nodes
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize


@given(documents())
@settings(max_examples=60)
def test_serialize_parse_round_trip(document):
    """parse(serialize(d)) preserves structure, values and IDs."""
    data = serialize(document)
    reparsed = parse_document(data, document.uri)
    assert serialize(reparsed) == data
    original_nodes = list(number_nodes(document))
    reparsed_nodes = list(number_nodes(reparsed))
    assert len(original_nodes) == len(reparsed_nodes)
    for ours, theirs in zip(original_nodes, reparsed_nodes):
        assert type(ours[0]) is type(theirs[0])
        assert ours[1:] == theirs[1:]  # the same (pre, post, depth), path


@given(documents())
@settings(max_examples=60)
def test_identifier_invariants(document):
    """pre values are 1..n in document order; post values are a
    permutation of 1..n; containment matches the ID arithmetic."""
    nodes = [node_id for _, node_id, _ in number_nodes(document)]
    pres = [n.pre for n in nodes]
    posts = sorted(n.post for n in nodes)
    assert pres == list(range(1, len(nodes) + 1))
    assert posts == list(range(1, len(nodes) + 1))


@given(documents())
@settings(max_examples=40)
def test_ancestor_arithmetic_matches_tree(document):
    """a.is_ancestor_of(b) iff b is really inside a's subtree."""
    elements = [e for e in document.iter_elements()]
    ids = node_ids(document)
    for ancestor in elements:
        inside = {id(n) for n in ancestor.iter_subtree()} - {id(ancestor)}
        for element in elements:
            expected = id(element) in inside
            assert ids[id(ancestor)].is_ancestor_of(ids[id(element)]) == \
                expected


@given(documents())
@settings(max_examples=40)
def test_depth_matches_path_length(document):
    ids, paths = node_ids(document), node_paths(document)
    for element in document.iter_elements():
        segments = [s for s in paths[id(element)].split("/") if s]
        assert ids[id(element)].depth == len(segments)


@given(tricky_text, tricky_text)
@settings(max_examples=60)
def test_escaping_round_trip(content, attr_value):
    root = Element(label="r")
    root.set_attribute("a", attr_value)
    root.add(Text(value=content))
    document = Document(uri="t.xml", root=root)
    reparsed = parse_document(serialize(document), "t.xml")
    assert reparsed.root.attribute("a").value == attr_value
    assert reparsed.root.string_value() == content


@given(documents())
@settings(max_examples=40)
def test_string_value_is_text_concatenation(document):
    def collect(element):
        out = []
        for child in element.children:
            if isinstance(child, Text):
                out.append(child.value)
            else:
                out.extend(collect(child))
        return out
    for element in document.iter_elements():
        assert element.string_value() == "".join(collect(element))
