"""Unit tests for serialization (and the parse round-trip)."""

from tests.model_helpers import elements_by_label

from repro.xmldb.model import Document, Element, Text, number_nodes
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import (escape_attr, escape_text, serialize,
                                    serialize_element, subtree_xml)


def test_empty_element_self_closes():
    assert serialize_element(Element(label="a")) == "<a/>"


def test_attributes_in_order():
    element = Element(label="a")
    element.set_attribute("x", "1")
    element.set_attribute("y", "2")
    assert serialize_element(element) == '<a x="1" y="2"/>'


def test_text_escaping():
    assert escape_text("a < b & c > d") == "a &lt; b &amp; c &gt; d"


def test_attr_escaping_includes_quotes():
    assert escape_attr('say "hi"') == "say &quot;hi&quot;"


def test_mixed_content_round_trip():
    source = b"<p>one<b>two</b>three</p>"
    doc = parse_document(source, "t.xml")
    assert serialize(doc) == source


def test_round_trip_paper_document(manet):
    data = serialize(manet)
    reparsed = parse_document(data, manet.uri)
    assert serialize(reparsed) == data
    assert reparsed.node_count() == manet.node_count()
    assert [(i, p) for _, i, p in number_nodes(reparsed)] == \
        [(i, p) for _, i, p in number_nodes(manet)]


def test_subtree_xml_is_cont_annotation(manet):
    painter = elements_by_label(manet, "painter")[0]
    xml = subtree_xml(painter)
    assert xml.startswith("<painter>")
    assert "<last>Manet</last>" in xml


def test_serialize_returns_utf8_bytes():
    root = Element(label="a")
    root.add(Text(value="héllo"))
    document = Document(uri="t", root=root)
    assert serialize(document) == "<a>héllo</a>".encode("utf-8")
