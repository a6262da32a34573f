"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.predicates import Contains, Equals
from repro.xmldb.ids import NodeID
from repro.xmldb.model import Document, Element, Text

#: Small label/word alphabets keep collision probability high, which is
#: what exercises the interesting index/join paths.
LABELS = ("a", "b", "c", "d", "item", "name")
ATTR_NAMES = ("id", "ref", "kind")
WORDS = ("gold", "lion", "lot", "blue", "x1")

label = st.sampled_from(LABELS)
attr_name = st.sampled_from(ATTR_NAMES)
word = st.sampled_from(WORDS)

#: Text content: short word sequences (always tokenizable).
text_value = st.lists(word, min_size=1, max_size=4).map(" ".join)

#: Free-form text for serializer round-trips: printable, including the
#: characters that need escaping, but no control chars or whitespace-
#: only strings (expat normalises those away in attribute values).
tricky_text = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'",
    min_size=1, max_size=20).filter(lambda s: s.strip())


@st.composite
def elements(draw, max_depth: int = 3) -> Element:
    """A random element subtree."""
    element = Element(label=draw(label))
    for name in draw(st.lists(attr_name, max_size=2, unique=True)):
        element.set_attribute(name, draw(text_value))
    if max_depth > 0:
        children = draw(st.lists(
            st.one_of(
                text_value.map(lambda v: Text(value=v)),
                elements(max_depth=max_depth - 1),
            ),
            max_size=3))
        for child in children:
            # Adjacent text nodes would merge into one on a parse
            # round-trip (XML has no empty markup between them), so
            # drop runs: one text node per gap, like real documents.
            if (isinstance(child, Text) and element.children
                    and isinstance(element.children[-1], Text)):
                continue
            element.add(child)
    return element


@st.composite
def documents(draw) -> Document:
    """A random document."""
    document = Document(uri="doc.xml", root=draw(elements()))
    from repro.xmldb.serializer import serialize
    document.size_bytes = len(serialize(document))
    return document


@st.composite
def sorted_node_ids(draw, max_size: int = 30):
    """A strictly pre-sorted NodeID list (the LUI invariant)."""
    pres = draw(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                         unique=True, max_size=max_size))
    pres.sort()
    out = []
    for pre in pres:
        post = draw(st.integers(min_value=0, max_value=10 ** 6))
        depth = draw(st.integers(min_value=1, max_value=40))
        out.append(NodeID(pre, post, depth))
    return out


@st.composite
def _twig_nodes(draw, depth: int) -> PatternNode:
    node = PatternNode(label=draw(label),
                       axis=draw(st.sampled_from([Axis.CHILD,
                                                  Axis.DESCENDANT])))
    if draw(st.booleans()):
        node.predicate = Contains(draw(word))  # a word leaf, once expanded
    if depth > 0:
        for child in draw(st.lists(_twig_nodes(depth=depth - 1),
                                   max_size=2)):
            node.add_child(child)
    if draw(st.booleans()):
        leaf = PatternNode(label=draw(attr_name), is_attribute=True,
                           axis=draw(st.sampled_from([Axis.CHILD,
                                                      Axis.DESCENDANT])))
        if draw(st.booleans()):
            leaf.predicate = Equals(draw(word))
        node.add_child(leaf)
    return node


@st.composite
def twig_patterns(draw, max_depth: int = 2) -> TreePattern:
    """A random tree pattern over the property alphabets: ``/`` and
    ``//`` edges, word predicates and (valued) attribute leaves."""
    root = draw(_twig_nodes(depth=max_depth))
    root.axis = Axis.DESCENDANT
    return TreePattern(root=root)
