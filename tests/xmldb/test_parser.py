"""Unit tests for XML parsing into the model."""

import pytest

from repro.errors import XMLParseError
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Text, number_nodes
from repro.xmldb.parser import parse_document


def test_parse_simple_document():
    doc = parse_document(b"<a><b>hi</b></a>", "a.xml")
    assert doc.uri == "a.xml"
    assert doc.root.label == "a"
    assert doc.root.child_elements()[0].string_value() == "hi"
    assert doc.size_bytes == len(b"<a><b>hi</b></a>")


def test_parse_assigns_identifiers():
    """A parsed document numbers as Figure 3 does, through the walk."""
    doc = parse_document(b"<a><b/><c/></a>", "t.xml")
    labels = {node.label: node_id for node, node_id, _ in number_nodes(doc)}
    assert labels["a"] == NodeID(1, 3, 1)
    assert labels["b"] == NodeID(2, 1, 2)
    assert labels["c"] == NodeID(3, 2, 2)


def test_parse_attributes():
    doc = parse_document(b'<a x="1" y="2"/>', "t.xml")
    assert [(at.name, at.value) for at in doc.root.attributes] == \
        [("x", "1"), ("y", "2")]


def test_parse_mixed_content_preserved():
    doc = parse_document(b"<p>one<b>two</b>three</p>", "t.xml")
    kinds = ["text" if isinstance(c, Text) else c.label
             for c in doc.root.children]
    assert kinds == ["text", "b", "text"]
    assert doc.root.string_value() == "onetwothree"


def test_parse_entities_unescaped():
    doc = parse_document(b"<a>x &amp; y &lt; z</a>", "t.xml")
    assert doc.root.string_value() == "x & y < z"


def test_parse_accepts_str_input():
    doc = parse_document("<a>é</a>", "t.xml")
    assert doc.root.string_value() == "é"


def test_malformed_input_raises():
    with pytest.raises(XMLParseError):
        parse_document(b"<a><b></a>", "bad.xml")


def test_empty_input_raises():
    with pytest.raises(XMLParseError):
        parse_document(b"", "empty.xml")


def test_parse_error_mentions_uri():
    with pytest.raises(XMLParseError) as exc_info:
        parse_document(b"not xml", "which.xml")
    assert "which.xml" in str(exc_info.value)


@pytest.mark.parametrize("declared", ["bogus", "shift_jis"])
def test_undecodable_encoding_declaration_raises_typed(declared):
    """An unknown codec name (a bare ``LookupError`` from expat) and a
    multi-byte one (a bare ``ValueError``) are malformed input too."""
    data = "<?xml version='1.0' encoding='{}'?><a/>".format(declared)
    with pytest.raises(XMLParseError, match="uri=enc.xml"):
        parse_document(data.encode(), "enc.xml")


def test_deep_document_parses():
    """Conversion and numbering walk with explicit stacks: a document
    nested far below the interpreter's recursion limit still parses,
    numbered like any other."""
    depth = 5000
    doc = parse_document(b"<a>" * depth + b"x" + b"</a>" * depth, "deep.xml")
    numbered = list(number_nodes(doc))
    assert numbered[0][:2] == (doc.root, NodeID(1, depth + 1, 1))
    element = doc.root
    for level in range(2, depth + 1):
        element = element.children[0]
    node, node_id, path = numbered[depth - 1]
    assert node is element and node_id == NodeID(depth, 2, depth)
    assert numbered[depth][0] is element.children[0]
    assert numbered[depth][1] == NodeID(depth + 1, 1, depth + 1)
    assert path.count("/") == depth
