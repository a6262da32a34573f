"""Ordered XML tree model: elements, attributes and text.

A node holds only what evaluation and serialization read.  Its
:class:`~repro.xmldb.ids.NodeID` and root-to-node *label path*
(``inPath(n)`` in §5) are an index over the document, computed by one
walk where needed (:func:`number_nodes`).  Every walk here keeps an
explicit stack, so any nesting depth walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import XMLError
from repro.xmldb.ids import NodeID


class _Node:
    """Structural ``==`` and ``repr`` over ``__slots__``, as dataclasses
    give (``dataclass(slots=True)`` needs Python 3.10)."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclasses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs: List[Tuple[Any, Any]] = [(self, other)]
        while pairs:
            left, right = pairs.pop()
            if left.__class__ is not right.__class__:
                return False
            if isinstance(left, _Node):
                pairs.extend((getattr(left, name), getattr(right, name))
                             for name in left.__slots__)
            elif isinstance(left, (list, tuple)):
                if len(left) != len(right):
                    return False
                pairs.extend(zip(left, right))
            elif left != right:
                return False
        return True

    def __repr__(self) -> str:
        pieces: List[str] = []
        todo: List[Any] = [(self,)]  # a literal piece, or (what to render,)
        while todo:
            entry = todo.pop()
            if isinstance(entry, str):
                pieces.append(entry)
                continue
            item = entry[0]
            if isinstance(item, _Node):
                opening, closing = type(item).__name__ + "(", ")"
                fields = [(name + "=", getattr(item, name))
                          for name in item.__slots__]
            elif isinstance(item, (list, tuple)):
                opening, closing = ("[", "]") if isinstance(item, list) \
                    else ("(", ",)" if len(item) == 1 else ")")
                fields = [("", value) for value in item]
            else:
                pieces.append(repr(item))
                continue
            todo.append(closing)
            for index in range(len(fields) - 1, -1, -1):
                todo.append((fields[index][1],))
                todo.append((", " if index else "") + fields[index][0])
            todo.append(opening)
        return "".join(pieces)


class Text(_Node):
    """A text node: one contiguous run of character data."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value


class Attribute(_Node):
    """An attribute node; its value is part of the node, not a child."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        self.name = name
        self.value = value


#: The attributes of every element that has none (one shared tuple).
_NO_ATTRIBUTES: Tuple[Attribute, ...] = ()


class Element(_Node):
    """An element node with ordered attributes and mixed content."""

    __slots__ = ("label", "attributes", "children")

    def __init__(self, label: str) -> None:
        self.label = label
        self.attributes: Sequence[Attribute] = _NO_ATTRIBUTES
        self.children: List[Union[Element, Text]] = []

    # -- construction helpers ------------------------------------------------

    def add(self, child: Union["Element", Text]) -> Union["Element", Text]:
        """Append a child node and return it (builder convenience)."""
        self.children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> Attribute:
        """Append an attribute and return it."""
        attr = Attribute(name, value)
        if not self.attributes:
            self.attributes = []
        self.attributes.append(attr)  # type: ignore[attr-defined]
        return attr

    # -- navigation ------------------------------------------------------------

    def child_elements(self) -> List["Element"]:
        """Element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def attribute(self, name: str) -> Optional[Attribute]:
        """First attribute with the given name, or None."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def iter_subtree(self) -> Iterator[Union["Element", Attribute, Text]]:
        """All nodes of this subtree in document (pre-) order,
        attributes before children — the numbering order."""
        yield self
        yield from self.attributes
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                yield child
                if isinstance(child, Element):
                    yield from child.attributes
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def iter_elements(self) -> Iterator["Element"]:
        """All descendant-or-self elements in document order.  Children
        are read once their element has been yielded, so a caller may
        rewire them in between."""
        yield self
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    # -- values -------------------------------------------------------------------

    def string_value(self) -> str:
        """The node's *value* per the XQuery spec (§4): the concatenation
        of all its text descendants, in document order."""
        return "".join([node.value for node in self.iter_subtree()
                        if isinstance(node, Text)])


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


def number_nodes(document: Document,
                 ) -> Iterator[Tuple[Union[Element, Attribute, Text], NodeID,
                                     str]]:
    """Each node's (pre, post, depth) ID and label path, in document order.

    Numbering follows Figure 3: one counter pair over the whole document,
    the root at pre=1 / depth=1, each element visiting its attributes
    first and then its children, each contiguous text run one node; post
    is assigned when a node's subtree completes.  Paths read e.g.
    ``/epainting/ename`` and ``/epainting/aid``; a text node's is its
    parent element's (word paths append the word).
    """
    rows: List[list] = []  # [node, depth, path, post], in pre order
    post = 0
    open_elements: List[tuple] = []  # (its row, its children left)
    element: Optional[Element] = document.root
    depth, parent_path = 1, ""
    while element is not None:
        path = "{}/e{}".format(parent_path, element.label)
        rows.append([element, depth, path, 0])  # post set on completion
        open_elements.append((rows[-1], iter(element.children)))
        for attr in element.attributes:
            post += 1
            rows.append([attr, depth + 1, "{}/a{}".format(path, attr.name),
                         post])
        element = None
        while open_elements and element is None:
            row, children = open_elements[-1]
            depth, path = row[1], row[2]
            for child in children:
                if isinstance(child, Element):
                    element, depth, parent_path = child, depth + 1, path
                    break
                if not isinstance(child, Text):
                    raise XMLError("unexpected child node {!r}".format(child))
                post += 1
                rows.append([child, depth + 1, path, post])
            else:
                open_elements.pop()
                post += 1
                row[3] = post
    for pre, (node, depth, path, post) in enumerate(rows, 1):
        yield node, NodeID(pre, post, depth), path
