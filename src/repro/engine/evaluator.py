"""Tree-pattern evaluation over parsed documents.

This is the "standard XML query evaluation" step of the architecture
(§3, step 11): once the look-up has narrowed the document set, each
retrieved document is parsed and the tree pattern is matched against it
directly — structural navigation, value selections, and projection of
the ``val`` / ``cont`` annotated nodes.

Semantics follow §4:

- a pattern node labelled ``l`` matches elements (or attributes) named
  ``l``; the pattern root may match any element of the document;
- ``/`` edges require parent/child, ``//`` edges ancestor/descendant
  (for attribute targets: an attribute of the element itself or of any
  of its descendants);
- value predicates test the node's string value (the concatenation of
  its text descendants for elements, the attribute value for
  attributes);
- each distinct combination of (projected values, variable bindings)
  yields one result row (set semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from repro.query.pattern import Axis, PatternNode, Query, TreePattern
from repro.xmldb.model import Attribute, Document, Element
from repro.xmldb.serializer import subtree_xml

MatchedNode = Union[Element, Attribute]


@dataclass(frozen=True)
class EvalRow:
    """One result row: projected values plus ``$variable`` bindings."""

    projections: Tuple[str, ...]
    variables: Tuple[Tuple[str, str], ...] = ()
    #: URI of the document the row came from (provenance).
    uri: str = ""

    def variable(self, name: str) -> str:
        """The value bound to ``$name`` (KeyError if unbound)."""
        for key, value in self.variables:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def size_bytes(self) -> int:
        """Serialized row size, used for ``|r(q)|`` accounting (computed
        on first use, kept out of the fields: the row is frozen)."""
        try:
            return self._size_bytes
        except AttributeError:
            size = sum(len(p.encode("utf-8")) for p in self.projections) \
                + sum(len(v.encode("utf-8")) for _, v in self.variables)
            object.__setattr__(self, "_size_bytes", size)
            return size


def _node_value(node: MatchedNode) -> str:
    if isinstance(node, Attribute):
        return node.value
    return node.string_value()


def _descendant_elements(element: Element) -> Iterable[Element]:
    elements = element.iter_elements()
    next(elements)  # the element itself
    return elements


def _candidates(context: Element, pattern_node: PatternNode,
                ) -> List[MatchedNode]:
    """Nodes reachable from ``context`` through the pattern edge."""
    label = pattern_node.label
    if pattern_node.is_attribute:
        if pattern_node.axis is Axis.CHILD:
            return [a for a in context.attributes if a.name == label]
        scope: List[Element] = [context]
        scope.extend(_descendant_elements(context))
        return [a for e in scope for a in e.attributes if a.name == label]
    if pattern_node.axis is Axis.CHILD:
        return [e for e in context.child_elements() if e.label == label]
    return [e for e in _descendant_elements(context) if e.label == label]


def _embeddings(pattern_node: PatternNode, node: MatchedNode,
                ) -> List[Dict[int, MatchedNode]]:
    """All embeddings of the subtree of ``pattern_node`` rooted at ``node``."""
    predicate = pattern_node.predicate
    if predicate is not None and not predicate.matches(_node_value(node)):
        return []
    partial: List[Dict[int, MatchedNode]] = [{id(pattern_node): node}]
    for child in pattern_node.children:
        assert isinstance(node, Element)  # attributes have no children
        child_embeddings: List[Dict[int, MatchedNode]] = []
        for candidate in _candidates(node, child):
            child_embeddings.extend(_embeddings(child, candidate))
        if not child_embeddings:
            return []
        combined = []
        for done in partial:
            for extra in child_embeddings:
                merged = dict(done)
                merged.update(extra)
                combined.append(merged)
        partial = combined
    return partial


def _all_embeddings(pattern: TreePattern, document: Document,
                    ) -> List[Dict[int, MatchedNode]]:
    out: List[Dict[int, MatchedNode]] = []
    for element in document.iter_elements():
        if element.label == pattern.root.label:
            out.extend(_embeddings(pattern.root, element))
    return out


def pattern_matches(pattern: TreePattern, document: Document) -> bool:
    """Whether the pattern has at least one embedding (early exit)."""
    for element in document.iter_elements():
        if element.label == pattern.root.label and \
                _embeddings(pattern.root, element):
            return True
    return False


def _project(pattern: TreePattern, embedding: Mapping[int, MatchedNode],
             uri: str) -> EvalRow:
    projections: List[str] = []
    variables: List[Tuple[str, str]] = []
    for node in pattern.iter_nodes():
        matched = embedding.get(id(node))
        if matched is None:
            continue
        if node.want_val:
            projections.append(_node_value(matched))
        if node.want_cont:
            assert isinstance(matched, Element)
            projections.append(subtree_xml(matched))
        if node.variable is not None:
            variables.append((node.variable, _node_value(matched)))
    return EvalRow(projections=tuple(projections),
                   variables=tuple(variables), uri=uri)


def evaluate_pattern(pattern: TreePattern, document: Document,
                     ) -> List[EvalRow]:
    """All distinct result rows of one pattern on one document."""
    rows: List[EvalRow] = []
    seen = set()
    for embedding in _all_embeddings(pattern, document):
        row = _project(pattern, embedding, document.uri)
        key = (row.projections, row.variables)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def evaluate_query(query: Query, documents: Iterable[Document],
                   ) -> List[EvalRow]:
    """Evaluate a full query (§5.5 strategy for value joins).

    Each tree pattern is evaluated individually on every document — "one
    tree pattern only matches one XML document" — and value joins then
    combine rows *across* documents.
    """
    from repro.engine.value_join import join_query_rows

    documents = list(documents)
    per_pattern: List[List[EvalRow]] = []
    for pattern in query.patterns:
        rows: List[EvalRow] = []
        for document in documents:
            rows.extend(evaluate_pattern(pattern, document))
        per_pattern.append(rows)
    return join_query_rows(query, per_pattern)


def result_size_bytes(rows: Iterable[EvalRow]) -> int:
    """``|r(q)|`` — total serialized result size (§7.1)."""
    return sum(row.size_bytes for row in rows)
