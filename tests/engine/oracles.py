"""Row-at-a-time reference joins over ``NodeID`` lists.

The engine ships only the columnar kernels of
:mod:`repro.engine.columnar`; these are the straightforward versions
they are held to.  :class:`HolisticTwigJoin` is the bottom-up holistic
twig join of Bruno et al. [7] (per pattern node, the stream IDs rooting
a full subtree match; the document matches iff the root's set is
non-empty) and :func:`stack_tree_join` the stack-based binary
structural join of Al-Khalifa et al. [3].  The semi-joins are the pair
join projected and deduplicated — the materialise-then-dedupe plan the
single-pass kernels replace.  Every input is checked for sortedness by
``pre``, and an unsorted one raises :class:`EvaluationError`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.xmldb.ids import NodeID


def _check_sorted(ids: Sequence[NodeID], side: str) -> None:
    for previous, current in zip(ids, ids[1:]):
        if current.pre <= previous.pre:
            raise EvaluationError(
                "{} list is not sorted by pre ({} after {})".format(
                    side, current, previous))


class _Stream:
    """A sorted ID stream with contiguous-run descendant search."""

    def __init__(self, ids: Sequence[NodeID], label: str,
                 validate: bool = True) -> None:
        self.ids = list(ids)
        self._pres = [node_id.pre for node_id in self.ids]
        if validate:
            _check_sorted(self.ids, "stream for {!r}".format(label))

    def has_structural_child(self, parent: NodeID, axis: Axis) -> bool:
        """Whether some stream ID is a descendant (or child) of
        ``parent``: descendants occupy a contiguous run of the
        pre-sorted stream starting right after ``parent.pre``."""
        index = bisect.bisect_right(self._pres, parent.pre)
        while index < len(self.ids):
            candidate = self.ids[index]
            if candidate.post > parent.post:
                return False  # subtree run ended
            if axis is Axis.DESCENDANT or candidate.depth == parent.depth + 1:
                return True
            index += 1
        return False


class HolisticTwigJoin:
    """Existence-checking holistic twig join for one tree pattern;
    ``streams`` maps the identity of each pattern node to its sorted
    ID list (missing or empty: no match)."""

    def __init__(self, pattern: TreePattern,
                 streams: Mapping[int, Sequence[NodeID]]) -> None:
        self.pattern = pattern
        self._streams = {id(node): _Stream(streams.get(id(node)) or [],
                                           node.label)
                         for node in pattern.iter_nodes()}
        self._ok: Optional[Dict[int, List[NodeID]]] = None

    def _compute(self) -> Dict[int, List[NodeID]]:
        """Bottom-up OK sets: IDs rooting a full subtree match."""
        if self._ok is None:
            ok: Dict[int, List[NodeID]] = {}
            for node in _postorder(self.pattern.root):
                # OK sets are sorted by construction: no re-validation.
                children = [(_Stream(ok[id(child)], child.label,
                                     validate=False), child.axis)
                            for child in node.children]
                ok[id(node)] = [
                    candidate for candidate in self._streams[id(node)].ids
                    if all(stream.has_structural_child(candidate, axis)
                           for stream, axis in children)]
            self._ok = ok
        return self._ok

    def matches(self) -> bool:
        """Whether the document contains at least one full twig match."""
        return bool(self._compute()[id(self.pattern.root)])

    def matching_roots(self) -> List[NodeID]:
        """Pattern-root IDs with a full match, in document order."""
        return list(self._compute()[id(self.pattern.root)])

    def rows_processed(self) -> int:
        """Total stream entries consumed."""
        return sum(len(stream.ids) for stream in self._streams.values())


def _postorder(node: PatternNode):
    for child in node.children:
        yield from _postorder(child)
    yield node


def stack_tree_join(ancestors: Sequence[NodeID],
                    descendants: Sequence[NodeID],
                    parent_child: bool = False,
                    ) -> List[Tuple[NodeID, NodeID]]:
    """All (ancestor, descendant) — or (parent, child) — pairs between
    two pre-sorted ID lists, sorted by (descendant.pre, ancestor.pre)."""
    _check_sorted(ancestors, "ancestor")
    _check_sorted(descendants, "descendant")
    result: List[Tuple[NodeID, NodeID]] = []
    stack: List[NodeID] = []
    a_index = 0
    for descendant in descendants:
        # Open every ancestor candidate that starts before this node.
        while (a_index < len(ancestors)
               and ancestors[a_index].pre < descendant.pre):
            candidate = ancestors[a_index]
            # Close candidates whose subtree ended before this one starts.
            while stack and not stack[-1].is_ancestor_of(candidate):
                stack.pop()
            stack.append(candidate)
            a_index += 1
        # Close candidates that do not contain the current descendant.
        while stack and not stack[-1].is_ancestor_of(descendant):
            stack.pop()
        for ancestor in stack:
            if not parent_child or ancestor.depth + 1 == descendant.depth:
                result.append((ancestor, descendant))
    return result


def semi_join_descendants(ancestors: Sequence[NodeID],
                          descendants: Sequence[NodeID],
                          parent_child: bool = False) -> List[NodeID]:
    """Descendants with an ancestor in ``ancestors``, document order."""
    return sorted({descendant for _, descendant in stack_tree_join(
        ancestors, descendants, parent_child)})


def semi_join_ancestors(ancestors: Sequence[NodeID],
                        descendants: Sequence[NodeID],
                        parent_child: bool = False) -> List[NodeID]:
    """Ancestors with a descendant in ``descendants``, document order."""
    return sorted({ancestor for ancestor, _ in stack_tree_join(
        ancestors, descendants, parent_child)})
