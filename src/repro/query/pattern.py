"""Tree patterns and value-joined queries (§4 object model).

A :class:`PatternNode` is labelled with an element or attribute name,
reached from its parent through a child (``/``) or descendant (``//``)
edge, and may carry ``val`` / ``cont`` annotations, a value predicate,
and a ``$variable`` binding used by value joins.  A :class:`TreePattern`
is a rooted tree of such nodes (the pattern root is implicitly reached
from the document root by a descendant edge, as in Figure 2).  A
:class:`Query` is one or more patterns plus :class:`ValueJoin` s pairing
``$variables`` across patterns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import PatternSemanticsError
from repro.query.predicates import Predicate


class Axis(enum.Enum):
    """Edge type between a pattern node and its parent."""

    CHILD = "/"
    DESCENDANT = "//"


@dataclass
class PatternNode:
    """One node of a tree pattern."""

    label: str
    is_attribute: bool = False
    axis: Axis = Axis.DESCENDANT
    want_val: bool = False
    want_cont: bool = False
    predicate: Optional[Predicate] = None
    variable: Optional[str] = None
    children: List["PatternNode"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.label:
            raise PatternSemanticsError("pattern node with empty label")
        if self.is_attribute and self.want_cont:
            raise PatternSemanticsError(
                "attribute node @{} cannot be annotated cont".format(self.label))
        if self.is_attribute and self.children:
            raise PatternSemanticsError(
                "attribute node @{} cannot have children".format(self.label))

    # -- construction ------------------------------------------------------

    def add_child(self, node: "PatternNode") -> "PatternNode":
        """Attach ``node`` as the next child and return it."""
        self.children.append(node)
        return node

    # -- traversal ------------------------------------------------------------

    def iter_nodes(self) -> Iterator["PatternNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    @property
    def is_leaf(self) -> bool:
        """True when the node has no pattern children."""
        return not self.children

    @property
    def display_label(self) -> str:
        """Label with the @ prefix for attributes."""
        return "@" + self.label if self.is_attribute else self.label

    def __str__(self) -> str:
        parts = [self.display_label]
        if self.predicate is not None:
            parts.append(str(self.predicate))
        if self.want_val:
            parts.append("{val}")
        if self.want_cont:
            parts.append("{cont}")
        if self.variable:
            parts.append("{$%s}" % self.variable)
        if self.children:
            inner = ", ".join(
                "{}{}".format(child.axis.value, child) for child in self.children)
            parts.append("[" + inner + "]")
        return "".join(parts)


@dataclass
class TreePattern:
    """A rooted tree pattern; one pattern matches within one document."""

    root: PatternNode

    def __post_init__(self) -> None:
        if self.root.is_attribute:
            raise PatternSemanticsError("a pattern cannot be rooted at an attribute")

    def iter_nodes(self) -> Iterator[PatternNode]:
        """All pattern nodes, pre-order."""
        return self.root.iter_nodes()

    def node_count(self) -> int:
        """Number of pattern nodes."""
        return sum(1 for _ in self.iter_nodes())

    def root_to_leaf_paths(self) -> List[List[Tuple[Axis, PatternNode]]]:
        """Every root-to-leaf branch as a list of (incoming axis, node).

        These are the *query paths* the LUP look-up matches against
        indexed data paths (§5.2).
        """
        paths: List[List[Tuple[Axis, PatternNode]]] = []
        self._walk(self.root, [], paths)
        return paths

    def _walk(self, node: PatternNode,
              prefix: List[Tuple[Axis, PatternNode]],
              out: List[List[Tuple[Axis, PatternNode]]]) -> None:
        step = prefix + [(node.axis, node)]
        if node.is_leaf:
            out.append(step)
            return
        for child in node.children:
            self._walk(child, step, out)

    def find_variable(self, variable: str) -> Optional[PatternNode]:
        """Locate the node bound to ``$variable``, if any."""
        for node in self.iter_nodes():
            if node.variable == variable:
                return node
        return None

    def __str__(self) -> str:
        return "//" + str(self.root)


@dataclass(frozen=True)
class ValueJoin:
    """An equality of string values across two pattern nodes (the dashed
    line of Figure 2), referenced by their ``$variable`` bindings."""

    left_variable: str
    right_variable: str


@dataclass
class Query:
    """A complete query: tree patterns plus value joins."""

    patterns: List[TreePattern]
    joins: List[ValueJoin] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.patterns:
            raise PatternSemanticsError("a query needs at least one pattern")
        self._validate_variables()

    def _validate_variables(self) -> None:
        owners: Dict[str, int] = {}
        for index, pattern in enumerate(self.patterns):
            for node in pattern.iter_nodes():
                if node.variable is None:
                    continue
                if node.variable in owners:
                    raise PatternSemanticsError(
                        "variable ${} bound twice".format(node.variable))
                owners[node.variable] = index
        for join in self.joins:
            for variable in (join.left_variable, join.right_variable):
                if variable not in owners:
                    raise PatternSemanticsError(
                        "join references unbound variable ${}".format(variable))

    @property
    def is_single_pattern(self) -> bool:
        """True for one-pattern (no-join) queries."""
        return len(self.patterns) == 1

    @property
    def has_value_joins(self) -> bool:
        """True when the query joins patterns on values."""
        return bool(self.joins)

    def variable_owner(self, variable: str) -> Tuple[int, PatternNode]:
        """Return (pattern index, node) owning ``$variable``."""
        for index, pattern in enumerate(self.patterns):
            node = pattern.find_variable(variable)
            if node is not None:
                return index, node
        raise PatternSemanticsError(
            "variable ${} not bound in query".format(variable))

    def node_count(self) -> int:
        """Number of pattern nodes."""
        return sum(p.node_count() for p in self.patterns)

    def __str__(self) -> str:
        body = " ; ".join(str(p) for p in self.patterns)
        for join in self.joins:
            body += " join ${} = ${}".format(
                join.left_variable, join.right_variable)
        return body


