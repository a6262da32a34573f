"""Render a pattern query as the XQuery it abbreviates.

§4: "We consider queries are formulated in an expressive fragment of
XQuery, amounting to value joins over tree patterns.  The translation to
XQuery syntax is pretty straightforward and we omit it."  We do not omit
it: this module emits a FLWOR expression for any :class:`Query`, used in
documentation, examples and the demo front end.  The translation follows
[21] (Manolescu et al., "Efficient XQuery rewriting using multiple
views"): one ``for`` clause per pattern node, structural predicates in
the path steps, value predicates in a ``where`` clause, annotated nodes
in the ``return`` clause.
"""

from __future__ import annotations

from typing import Dict, List

from repro.query.pattern import Axis, PatternNode, Query, TreePattern
from repro.query.predicates import Contains, Equals, RangePredicate

#: The document collection every translated query ranges over.
COLLECTION = 'collection("warehouse")'


def _step(axis: Axis, node: PatternNode) -> str:
    sep = "/" if axis is Axis.CHILD else "//"
    label = "@" + node.label if node.is_attribute else node.label
    return sep + label


def _fresh(names: Dict[str, int], node: PatternNode) -> str:
    base = node.variable or node.label
    count = names.get(base, 0)
    names[base] = count + 1
    return "${}".format(base if count == 0 else "{}{}".format(base, count))


class _Translator:
    def __init__(self) -> None:
        self.for_clauses: List[str] = []
        self.where: List[str] = []
        self.returns: List[str] = []
        self._names: Dict[str, int] = {}
        self.bindings: Dict[str, str] = {}  # query variable -> XQuery var

    def pattern(self, pattern: TreePattern, source: str) -> None:
        self._node(pattern.root, Axis.DESCENDANT, source)

    def _node(self, node: PatternNode, axis: Axis, context: str) -> str:
        var = _fresh(self._names, node)
        self.for_clauses.append(
            "for {} in {}{}".format(var, context, _step(axis, node)))
        if node.variable is not None:
            self.bindings[node.variable] = var
        predicate = node.predicate
        if isinstance(predicate, Equals):
            self.where.append('string({}) = "{}"'.format(var, predicate.constant))
        elif isinstance(predicate, Contains):
            self.where.append('contains(string({}), "{}")'.format(
                var, predicate.word))
        elif isinstance(predicate, RangePredicate):
            self.where.append('string({0}) >= "{1}" and string({0}) <= "{2}"'
                              .format(var, predicate.low, predicate.high))
        if node.want_val:
            self.returns.append("string({})".format(var))
        if node.want_cont:
            self.returns.append(var)
        for child in node.children:
            self._node(child, child.axis, var)
        return var


def to_xquery(query: Query) -> str:
    """Translate ``query`` into an XQuery FLWOR expression string over
    :data:`COLLECTION`."""
    translator = _Translator()
    for index, pattern in enumerate(query.patterns):
        doc_var = "$d{}".format(index + 1)
        translator.for_clauses.insert(
            len(translator.for_clauses),
            "for {} in {}".format(doc_var, COLLECTION))
        translator.pattern(pattern, doc_var)
    for join in query.joins:
        left = translator.bindings[join.left_variable]
        right = translator.bindings[join.right_variable]
        translator.where.append(
            "string({}) = string({})".format(left, right))
    lines = list(translator.for_clauses)
    if translator.where:
        lines.append("where " + "\n  and ".join(translator.where))
    returned = translator.returns or ["()"]
    lines.append("return <result>{{ {} }}</result>".format(
        ", ".join(returned)))
    return "\n".join(lines)
