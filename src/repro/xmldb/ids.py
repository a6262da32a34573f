"""(pre, post, depth) structural node identifiers.

The paper (§5, Notations) uses the classic identifiers of Al-Khalifa et
al. [3]: ``pre`` is the node's position in a pre-order traversal,
``post`` its position in a post-order traversal, and ``depth`` its
distance from the root (root depth = 1).  Two structural relations are
decidable from the identifiers alone:

- ``a`` is an **ancestor** of ``d``  iff  ``a.pre < d.pre`` and
  ``a.post > d.post``;
- ``a`` is the **parent** of ``d``  iff additionally
  ``a.depth + 1 == d.depth``.

(The paper's running example — ``name`` = (3, 3, 2) ancestor of its text
node (4, 2, 3) — shows the ancestor's *post* is the larger one; the
inequality as printed in §5 has a typo.)

NodeIDs sort by ``pre``, the document order the twig join requires.
"""

from __future__ import annotations

from typing import NamedTuple


class NodeID(NamedTuple):
    """A (pre, post, depth) structural identifier.

    Being a NamedTuple, NodeIDs compare lexicographically — and since
    ``pre`` is unique within a document, that is exactly document order.
    """

    pre: int
    post: int
    depth: int

    def is_ancestor_of(self, other: "NodeID") -> bool:
        """True if this node is a proper ancestor of ``other``."""
        return self.pre < other.pre and self.post > other.post

    def is_parent_of(self, other: "NodeID") -> bool:
        """True if this node is the parent of ``other``."""
        return self.is_ancestor_of(other) and self.depth + 1 == other.depth

    def as_text(self) -> str:
        """The paper's display form, e.g. ``(3, 3, 2)``."""
        return "({}, {}, {})".format(self.pre, self.post, self.depth)
