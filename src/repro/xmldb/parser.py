"""XML bytes → Document parsing.

Parsing uses the stdlib expat-backed :mod:`xml.etree.ElementTree` for
well-formedness and then converts to our ordered model, preserving mixed
content (``text`` / ``tail``) and attribute order.  The index write path walks the same
parse's tree itself (:func:`parse_tree`) and builds no model.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Union

from repro.errors import XMLParseError
from repro.xmldb.model import Attribute, Document, Element, Text


def parse_tree(data: bytes, uri: str) -> ET.Element:
    """ElementTree's tree of ``data``: the one parse behind
    :func:`parse_document` and the index extraction walk.  Raises
    :class:`~repro.errors.XMLParseError` on malformed input, including
    an encoding declaration expat cannot decode (unknown, multi-byte)."""
    try:
        return ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise XMLParseError("{} (uri={})".format(exc, uri)) from exc


def _convert(source: ET.Element) -> Element:
    """The model of ET's tree, built with an explicit stack (a document
    may nest deeper than the interpreter's recursion limit)."""
    root = Element(source.tag)
    stack = [(source, root)]
    pop, push = stack.pop, stack.append
    while stack:
        source, element = pop()
        if source.attrib:
            element.attributes = [Attribute(name, value) for name, value
                                  in source.attrib.items()]
        children = element.children
        if source.text:
            children.append(Text(source.text))
        for child in source:
            converted = Element(child.tag)
            children.append(converted)
            push((child, converted))
            if child.tail:
                children.append(Text(child.tail))
    return root


def parse_document(data: Union[bytes, str], uri: str) -> Document:
    """Parse XML ``data`` into a :class:`Document`.

    Raises :class:`~repro.errors.XMLParseError` on malformed input.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return Document(uri=uri, root=_convert(parse_tree(data, uri)),
                    size_bytes=len(data))
