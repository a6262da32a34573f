"""Ordered XML tree model with structural identifiers.

The model covers what the paper's indexing and querying need: elements,
attributes and text, each carrying a :class:`~repro.xmldb.ids.NodeID`
and its root-to-node *label path* (``inPath(n)`` in §5).  Identifier
assignment follows the paper's running example (Figure 3): a single
pre/post numbering over elements, attributes and text nodes, attributes
numbered before child content, attribute values folded into the
attribute node, and each contiguous text run forming one node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from repro.errors import XMLError
from repro.xmldb.ids import NodeID


@dataclass
class Text:
    """A text node: one contiguous run of character data."""

    value: str
    node_id: Optional[NodeID] = None
    #: Label path of the *parent element* (word paths append the word).
    parent_path: str = ""


@dataclass
class Attribute:
    """An attribute node; its value is part of the node, not a child."""

    name: str
    value: str
    node_id: Optional[NodeID] = None
    #: Root-to-attribute label path, e.g. ``/epainting/aid``.
    path: str = ""


@dataclass
class Element:
    """An element node with ordered attributes and mixed content."""

    label: str
    attributes: List[Attribute] = field(default_factory=list)
    children: List[Union["Element", Text]] = field(default_factory=list)
    node_id: Optional[NodeID] = None
    #: Root-to-element label path, e.g. ``/epainting/epainter/ename``.
    path: str = ""

    # -- construction helpers ------------------------------------------------

    def add(self, child: Union["Element", Text]) -> Union["Element", Text]:
        """Append a child node and return it (builder convenience)."""
        self.children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> Attribute:
        """Append an attribute and return it."""
        attr = Attribute(name=name, value=value)
        self.attributes.append(attr)
        return attr

    # -- navigation ------------------------------------------------------------

    def child_elements(self) -> List["Element"]:
        """Element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def text_children(self) -> List[Text]:
        """Text children, in document order."""
        return [c for c in self.children if isinstance(c, Text)]

    def attribute(self, name: str) -> Optional[Attribute]:
        """First attribute with the given name, or None."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def iter_subtree(self) -> Iterator[Union["Element", Attribute, Text]]:
        """All nodes of this subtree in document (pre-) order,
        attributes before children — the ID assignment order."""
        yield self
        for attr in self.attributes:
            yield attr
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_subtree()
            else:
                yield child

    def iter_elements(self) -> Iterator["Element"]:
        """All descendant-or-self elements in document order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_elements()

    # -- values -------------------------------------------------------------------

    def string_value(self) -> str:
        """The node's *value* per the XQuery spec (§4): the concatenation
        of all its text descendants, in document order."""
        parts: List[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: List[str]) -> None:
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.value)
            else:
                child._collect_text(parts)


@dataclass
class Document:
    """A document: URI plus the root element.

    ``size_bytes`` is the serialized size; the generator and parser set
    it so data-set metrics (``s(D)``, §7.1) do not require re-serializing.
    """

    uri: str
    root: Element
    size_bytes: int = 0

    def iter_nodes(self) -> Iterator[Union[Element, Attribute, Text]]:
        """All nodes in document order."""
        return self.root.iter_subtree()

    def iter_elements(self) -> Iterator[Element]:
        """All elements in document order."""
        return self.root.iter_elements()

    def node_count(self) -> int:
        """Total number of nodes (elements + attributes + texts)."""
        return sum(1 for _ in self.iter_nodes())

    def elements_by_label(self, label: str) -> List[Element]:
        """All elements with the given label, in document order."""
        return [e for e in self.iter_elements() if e.label == label]


def assign_identifiers(document: Document) -> None:
    """Assign (pre, post, depth) IDs and label paths to every node.

    Numbering follows Figure 3: one counter pair over the whole document,
    the root at pre=1 / depth=1, each element visiting its attributes
    first and then its children; post is assigned when a node's subtree
    completes (leaves complete immediately).  The walk keeps an explicit
    stack of open elements, so any nesting depth numbers.
    """
    pre = post = 0
    open_elements: List[tuple] = []  # (element, its pre, depth, children)
    element: Optional[Element] = document.root
    depth, parent_path = 1, ""
    while element is not None:
        pre += 1
        open_elements.append((element, pre, depth, iter(element.children)))
        path = element.path = "{}/e{}".format(parent_path, element.label)
        for attr in element.attributes:
            pre += 1
            post += 1
            attr.node_id = NodeID(pre, post, depth + 1)
            attr.path = "{}/a{}".format(path, attr.name)
        element = None
        while open_elements and element is None:
            parent, parent_pre, depth, children = open_elements[-1]
            for child in children:
                if isinstance(child, Element):
                    element, depth, parent_path = child, depth + 1, parent.path
                    break
                if not isinstance(child, Text):
                    raise XMLError("unexpected child node {!r}".format(child))
                pre += 1
                post += 1
                child.node_id = NodeID(pre, post, depth + 1)
                child.parent_path = parent.path
            else:
                open_elements.pop()
                post += 1
                parent.node_id = NodeID(parent_pre, post, depth)
