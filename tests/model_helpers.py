"""Test-side views of the document model.

A model node holds no identifier or path: :func:`number_nodes` computes
both in one walk.  These helpers key that walk's output by node
identity (nodes compare by value, so they are not hashable), and keep
the navigation helpers and (pre, post, depth) relations only tests use.
"""

from typing import Dict, List

from repro.xmldb.ids import NodeID
from repro.xmldb.model import Document, Element, Text, number_nodes


def node_ids(document: Document) -> Dict[int, NodeID]:
    """``id(node)`` -> the node's (pre, post, depth) identifier."""
    return {id(node): node_id for node, node_id, _ in number_nodes(document)}


def node_paths(document: Document) -> Dict[int, str]:
    """``id(node)`` -> the node's label path (a text's is its parent's)."""
    return {id(node): path for node, _, path in number_nodes(document)}


def element_ids(document: Document) -> List[NodeID]:
    """Every element's identifier, in document order."""
    return [node_id for node, node_id, _ in number_nodes(document)
            if isinstance(node, Element)]


def elements_by_label(document: Document, label: str) -> List[Element]:
    """All elements with the given label, in document order."""
    return [e for e in document.iter_elements() if e.label == label]


def text_children(element: Element) -> List[Text]:
    """Text children, in document order."""
    return [c for c in element.children if isinstance(c, Text)]


def is_descendant_of(node: NodeID, other: NodeID) -> bool:
    """True if ``node`` is a proper descendant of ``other``."""
    return other.is_ancestor_of(node)


def is_child_of(node: NodeID, other: NodeID) -> bool:
    """True if ``node`` is a child of ``other``."""
    return other.is_parent_of(node)


def follows(node: NodeID, other: NodeID) -> bool:
    """True if ``node`` starts after ``other``'s subtree ends."""
    return node.pre > other.pre and node.post > other.post
