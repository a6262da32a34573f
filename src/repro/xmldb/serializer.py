"""Document → XML bytes serialization.

The serializer produces canonical-ish XML: attributes in model order,
text exactly as stored, no insignificant whitespace added.  It is the
inverse of :func:`repro.xmldb.parser.parse_document`, a property the
test suite checks with hypothesis.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from repro.xmldb.model import Document, Element, Text

_ESCAPES_TEXT = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ESCAPES_ATTR = _ESCAPES_TEXT + [('"', "&quot;")]


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    for raw, entity in _ESCAPES_TEXT:
        value = value.replace(raw, entity)
    return value


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    for raw, entity in _ESCAPES_ATTR:
        value = value.replace(raw, entity)
    return value


def serialize_element(element: Element) -> str:
    """Serialize one element subtree to an XML string (an explicit
    stack of open elements, so any nesting depth serializes)."""
    parts: List[str] = []
    # (label to close, children left); the outer frame closes nothing.
    stack: List[Tuple[str, Iterator[Union[Element, Text]]]] = [
        ("", iter((element,)))]
    while stack:
        label, nodes = stack[-1]
        for node in nodes:
            if isinstance(node, Text):
                parts.append(escape_text(node.value))
                continue
            parts.append("<")
            parts.append(node.label)
            for attr in node.attributes:
                parts.append(' {}="{}"'.format(attr.name,
                                               escape_attr(attr.value)))
            if node.children:
                parts.append(">")
                stack.append((node.label, iter(node.children)))
                break
            parts.append("/>")
        else:
            stack.pop()
            if stack:
                parts.extend(("</", label, ">"))
    return "".join(parts)


def serialize(document: Document) -> bytes:
    """Serialize a document to UTF-8 XML bytes (no XML declaration)."""
    return serialize_element(document.root).encode("utf-8")


def subtree_xml(element: Element) -> str:
    """The *content* of a node (§4 ``cont``): the full XML subtree."""
    return serialize_element(element)
