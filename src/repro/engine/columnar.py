"""Structural-join kernels over :class:`IDBlock` columns.

The holistic twig join of Bruno et al. [7] and the stack-based binary
structural joins of Al-Khalifa et al. [3] run here as merge loops over
the parallel ``array('q')`` columns of
:class:`~repro.xmldb.blocks.IDBlock`, with no per-node object
construction or attribute dispatch on the hot path.  Inputs must be
sorted by ``pre`` — exactly why LUI stores its ID lists sorted (§5.3).
Row-at-a-time versions over ``NodeID`` lists live in the test suite as
reference oracles (``tests/engine/oracles.py``); the property suite
holds the kernels to them.

Validation policy: every kernel takes ``validate=False`` by default —
index-sourced blocks are sorted by construction (``encode_ids`` refuses
unsorted input and the lazy decode enforces strictly-positive pre
deltas), so re-checking on every call is pure overhead.  Pass
``validate=True`` to check hand-built inputs; :func:`make_twig_join`
does so by default for streams that are not blocks.

The semi-join kernels are single-pass merges: rather than materialise
the full O(output) pair join and dedupe it, they decide existence per
node directly, and report how many (ancestor, descendant) pairs they
actually examined through :class:`KernelStats`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.xmldb.blocks import IDBlock, as_block
from repro.xmldb.ids import NodeID

__all__ = [
    "BlockTwigJoin",
    "KernelStats",
    "block_semi_join_ancestors",
    "block_semi_join_descendants",
    "block_stack_tree_join",
    "flatten_twig",
    "hash_join_indices",
    "make_twig_join",
    "twig_exists",
]

BlockLike = Union[IDBlock, Sequence[NodeID]]
#: Per pre-order twig position: ((child position, is a // edge), ...).
TwigShape = Tuple[Tuple[Tuple[int, bool], ...], ...]


@dataclass
class KernelStats:
    """Work counters for the semi-join kernels.

    ``pairs_enumerated`` counts (ancestor, descendant) combinations the
    kernel actually examined — the regression suite asserts it is
    strictly below the full pair-join output on duplicate-heavy inputs.
    """

    pairs_enumerated: int = 0


def flatten_twig(pattern: TreePattern) -> Tuple[List[PatternNode], TwigShape]:
    """The twig's nodes in pre-order and, per position, its children as
    ``(position, is a // edge)`` — computed once, checked against many
    documents' streams by :func:`twig_exists`."""
    nodes = list(pattern.iter_nodes())
    position = {id(node): index for index, node in enumerate(nodes)}
    return nodes, tuple(
        tuple((position[id(child)], child.axis is Axis.DESCENDANT)
              for child in node.children) for node in nodes)


def twig_exists(children: TwigShape,
                streams: Sequence[Optional[BlockLike]]) -> bool:
    """Memoised top-down existence check with early exit.

    ``streams[i]`` is the sorted ID stream of pre-order twig position
    ``i`` (see :func:`flatten_twig`).  Only *one* witness is needed, so
    instead of the full bottom-up OK computation this verifies root
    entries in document order and stops at the first complete match.
    Laziness compounds: streams on pattern branches that are never
    reached (an edge that fails high up) are never decoded at all.
    Per-(position, entry) memoisation bounds the total work by the
    bottom-up computation's, so the worst case is the same and the
    common case is a handful of probes.
    """
    for stream in streams:
        if not stream:
            return False  # an empty stream kills every embedding
    if not children[0]:
        return True
    bound: List[Optional[tuple]] = [None] * len(streams)
    for index in range(_columns(streams, bound, 0)[3]):
        if _entry_ok(children, streams, bound, 0, index):
            return True
    return False


def _columns(streams: Sequence[Optional[BlockLike]],
             bound: List[Optional[tuple]], position: int) -> tuple:
    """First reach of a position: decode its columns, open its memo."""
    block = as_block(streams[position])
    entry = bound[position] = (block.pres, block.posts, block.depths,
                               len(block), {})
    return entry


def _entry_ok(children: TwigShape, streams: Sequence[Optional[BlockLike]],
              bound: List[Optional[tuple]], position: int,
              index: int) -> bool:
    """Whether entry ``index`` of ``position`` roots a sub-twig match.
    Not a closure: one recursing through its own cell is a GC cycle."""
    pres, posts, depths, _, memo = bound[position]
    cached = memo.get(index)
    if cached is not None:
        return cached
    pre = pres[index]
    post = posts[index]
    child_depth = depths[index] + 1
    result = True
    for child, descendant in children[position]:
        c_pres, c_posts, c_depths, c_size, _ = \
            bound[child] or _columns(streams, bound, child)
        inner = children[child]
        j = bisect_right(c_pres, pre)
        found = False
        while j < c_size and c_posts[j] <= post:
            if ((descendant or c_depths[j] == child_depth)
                    and (not inner
                         or _entry_ok(children, streams, bound, child, j))):
                found = True
                break
            j += 1
        if not found:
            result = False
            break
    memo[index] = result
    return result


class BlockTwigJoin:
    """Existence-checking holistic twig join (Bruno et al. [7]) over
    columnar streams.

    ``streams`` maps the *identity* of each pattern node to the
    document's sorted ID stream for that node's key; a missing or empty
    stream means no match.  :meth:`matches` runs :func:`twig_exists`;
    :meth:`matching_roots` computes, bottom-up, the stream entries that
    root a full subtree match, one merge per pattern edge (descendants
    form a contiguous ``pre`` run), with no per-pair enumeration.
    ``rows_processed`` only needs stream *lengths*, which are cheap even
    on lazy blocks, so the plan-CPU accounting is identical whether or
    not the streams were ever decoded.
    """

    def __init__(self, pattern: TreePattern,
                 streams: Mapping[int, Optional[BlockLike]],
                 validate: bool = False) -> None:
        self.pattern = pattern
        nodes, self._children = flatten_twig(pattern)
        self._blocks = [as_block(streams.get(id(node))) for node in nodes]
        if validate:
            for node, block in zip(nodes, self._blocks):
                block.check_sorted("stream for {!r}".format(node.label))
        self._ok: Optional[list] = None
        self._exists: Optional[bool] = None

    # -- core ---------------------------------------------------------------

    def _compute(self) -> list:
        """Bottom-up OK sets, as IDBlocks of surviving stream entries."""
        if self._ok is not None:
            return self._ok
        ok: list = list(self._blocks)  # a leaf's OK set is its stream
        # Reverse pre-order visits every child before its parent.
        for position in range(len(ok) - 1, -1, -1):
            if not self._children[position]:
                continue
            block = ok[position]
            children = []
            dead = False
            for child, descendant in self._children[position]:
                child_ok = ok[child]
                if not child_ok:
                    dead = True
                    break
                children.append((child_ok.pres, child_ok.posts,
                                 child_ok.depths, len(child_ok),
                                 descendant))
            if dead or not block:
                ok[position] = as_block(None)
                continue
            pres = block.pres
            posts = block.posts
            depths = block.depths
            out_pre = array("q")
            out_post = array("q")
            out_depth = array("q")
            append_pre = out_pre.append
            append_post = out_post.append
            append_depth = out_depth.append
            if len(children) == 1:
                # Single-child nodes dominate generated patterns;
                # unrolling the child loop keeps the per-entry cost to
                # one bisect plus the subtree-run scan, and zip walks
                # the parent columns at C speed.
                c_pres, c_posts, c_depths, c_size, descendant = children[0]
                if descendant:
                    for pre, post, depth in zip(pres, posts, depths):
                        index = bisect_right(c_pres, pre)
                        if index < c_size and c_posts[index] <= post:
                            append_pre(pre)
                            append_post(post)
                            append_depth(depth)
                else:
                    for pre, post, depth in zip(pres, posts, depths):
                        index = bisect_right(c_pres, pre)
                        child_depth = depth + 1
                        while index < c_size and c_posts[index] <= post:
                            if c_depths[index] == child_depth:
                                append_pre(pre)
                                append_post(post)
                                append_depth(depth)
                                break
                            index += 1
                ok[position] = IDBlock(out_pre, out_post, out_depth)
                continue
            for pre, post, depth in zip(pres, posts, depths):
                child_depth = depth + 1
                for c_pres, c_posts, c_depths, c_size, descendant in children:
                    index = bisect_right(c_pres, pre)
                    found = False
                    while index < c_size:
                        if c_posts[index] > post:
                            break  # subtree run ended
                        if descendant or c_depths[index] == child_depth:
                            found = True
                            break
                        index += 1
                    if not found:
                        break
                else:
                    append_pre(pre)
                    append_post(post)
                    append_depth(depth)
            ok[position] = IDBlock(out_pre, out_post, out_depth)
        self._ok = ok
        return ok

    # -- results -------------------------------------------------------------

    def matches(self) -> bool:
        """Whether the document contains at least one full twig match."""
        if self._ok is not None:
            return bool(self._ok[0])
        if self._exists is None:
            self._exists = twig_exists(self._children, self._blocks)
        return self._exists

    def matching_roots(self) -> List[NodeID]:
        """IDs of pattern-root occurrences with a full match, in
        document order."""
        return self._compute()[0].to_ids()

    def rows_processed(self) -> int:
        """Total stream entries consumed — drives the plan-CPU charge."""
        return sum(map(len, self._blocks))


def make_twig_join(pattern: TreePattern,
                   streams: Mapping[int, Optional[BlockLike]],
                   validate: Optional[bool] = None) -> BlockTwigJoin:
    """A :class:`BlockTwigJoin` over ``streams``.

    ``validate=None`` checks sortedness unless some stream is an
    :class:`IDBlock`: blocks are sorted by construction, while
    hand-built ``NodeID`` streams are checked, so an unsorted one raises
    :class:`~repro.errors.EvaluationError` instead of a wrong answer.
    """
    if validate is None:
        validate = not any(isinstance(ids, IDBlock)
                           for ids in streams.values())
    return BlockTwigJoin(pattern, streams, validate=validate)


# -- binary structural joins ------------------------------------------------


def block_stack_tree_join(ancestors: BlockLike, descendants: BlockLike,
                          parent_child: bool = False,
                          validate: bool = False,
                          ) -> List[Tuple[NodeID, NodeID]]:
    """Stack-tree join (Al-Khalifa et al. [3]): every (ancestor,
    descendant) — with ``parent_child``, (parent, child) — pair between
    two pre-sorted inputs in one merge pass over a stack of open
    ancestors, sorted by (descendant.pre, ancestor.pre)."""
    anc = as_block(ancestors)
    desc = as_block(descendants)
    if validate:
        anc.check_sorted("ancestor")
        desc.check_sorted("descendant")
    a_pres = anc.pres
    a_posts = anc.posts
    a_depths = anc.depths
    a_size = len(anc)
    d_pres = desc.pres
    d_posts = desc.posts
    d_depths = desc.depths
    result: List[Tuple[NodeID, NodeID]] = []
    stack: List[int] = []  # indices into the ancestor columns
    a_index = 0
    for i in range(len(desc)):
        d_pre = d_pres[i]
        d_post = d_posts[i]
        d_depth = d_depths[i]
        # Open every ancestor candidate that starts before this node.
        while a_index < a_size and a_pres[a_index] < d_pre:
            c_post = a_posts[a_index]
            # Close candidates whose subtree ended before this one starts.
            while stack and a_posts[stack[-1]] <= c_post:
                stack.pop()
            stack.append(a_index)
            a_index += 1
        # Close candidates that do not contain the current descendant.
        while stack and a_posts[stack[-1]] <= d_post:
            stack.pop()
        if not stack:
            continue
        descendant = NodeID(d_pre, d_post, d_depth)
        for s in stack:
            if not parent_child or a_depths[s] + 1 == d_depth:
                result.append((NodeID(a_pres[s], a_posts[s], a_depths[s]),
                               descendant))
    return result


def _semi_join_merge(anc: IDBlock, desc: IDBlock):
    """Shared merge for the semi-join kernels.

    Yields, per descendant, the cleaned stack of containing-ancestor
    indices (the stack lists *all* ancestors of the current descendant
    among the ancestor input, deepest last).
    """
    a_pres = anc.pres
    a_posts = anc.posts
    a_size = len(anc)
    d_pres = desc.pres
    d_posts = desc.posts
    stack: List[int] = []
    a_index = 0
    for i in range(len(desc)):
        d_pre = d_pres[i]
        d_post = d_posts[i]
        while a_index < a_size and a_pres[a_index] < d_pre:
            c_post = a_posts[a_index]
            while stack and a_posts[stack[-1]] <= c_post:
                stack.pop()
            stack.append(a_index)
            a_index += 1
        while stack and a_posts[stack[-1]] <= d_post:
            stack.pop()
        yield i, stack


def block_semi_join_descendants(ancestors: BlockLike,
                                descendants: BlockLike,
                                parent_child: bool = False,
                                validate: bool = False,
                                stats: Optional[KernelStats] = None,
                                ) -> IDBlock:
    """Descendants having at least one ancestor in ``ancestors``
    (duplicate-free, document order) — a direct single-pass semi-join.

    A descendant qualifies iff its ancestor stack is non-empty; for the
    parent/child axis, iff the *deepest* stack entry is exactly one
    level up (stack depths strictly increase upward, so any parent
    present is at the top).  No pair set is ever materialised.
    """
    anc = as_block(ancestors)
    desc = as_block(descendants)
    if validate:
        anc.check_sorted("ancestor")
        desc.check_sorted("descendant")
    a_depths = anc.depths
    d_pres = desc.pres
    d_posts = desc.posts
    d_depths = desc.depths
    out_pre = array("q")
    out_post = array("q")
    out_depth = array("q")
    for i, stack in _semi_join_merge(anc, desc):
        if not stack:
            continue
        if stats is not None:
            stats.pairs_enumerated += 1
        if parent_child and a_depths[stack[-1]] + 1 != d_depths[i]:
            continue
        out_pre.append(d_pres[i])
        out_post.append(d_posts[i])
        out_depth.append(d_depths[i])
    return IDBlock(out_pre, out_post, out_depth)


def block_semi_join_ancestors(ancestors: BlockLike,
                              descendants: BlockLike,
                              parent_child: bool = False,
                              validate: bool = False,
                              stats: Optional[KernelStats] = None,
                              ) -> IDBlock:
    """Ancestors having at least one descendant in ``descendants``
    (duplicate-free, document order) — single pass, amortised
    O(inputs + matches).

    For the descendant axis, each match walks the stack top-down
    marking entries and stops at the first already-marked one: marked
    entries always form a bottom prefix of the stack (pushes add
    unmarked entries on top, a marking walk leaves the whole stack
    marked), so everything below the stopping point is already marked.
    Each ancestor is thus marked at most once over the whole join.
    """
    anc = as_block(ancestors)
    desc = as_block(descendants)
    if validate:
        anc.check_sorted("ancestor")
        desc.check_sorted("descendant")
    a_pres = anc.pres
    a_posts = anc.posts
    a_depths = anc.depths
    d_depths = desc.depths
    marked = bytearray(len(anc))
    for i, stack in _semi_join_merge(anc, desc):
        if not stack:
            continue
        if parent_child:
            if stats is not None:
                stats.pairs_enumerated += 1
            top = stack[-1]
            if a_depths[top] + 1 == d_depths[i]:
                marked[top] = 1
            continue
        for s in reversed(stack):
            if marked[s]:
                break
            if stats is not None:
                stats.pairs_enumerated += 1
            marked[s] = 1
    out_pre = array("q")
    out_post = array("q")
    out_depth = array("q")
    for s in range(len(anc)):
        if marked[s]:
            out_pre.append(a_pres[s])
            out_post.append(a_posts[s])
            out_depth.append(a_depths[s])
    return IDBlock(out_pre, out_post, out_depth)


# -- value join -------------------------------------------------------------


def hash_join_indices(build_keys: Sequence, probe_keys: Sequence,
                      ) -> List[Tuple[int, int]]:
    """Hash-join kernel on join-key columns.

    Returns (probe_index, build_index) pairs in probe order — the
    row-pairing logic of
    :func:`~repro.engine.value_join.hash_value_join` with the hash
    table built over a key column instead of row dicts.
    """
    table: dict = {}
    for index, key in enumerate(build_keys):
        table.setdefault(key, []).append(index)
    out: List[Tuple[int, int]] = []
    for probe_index, key in enumerate(probe_keys):
        for build_index in table.get(key, ()):
            out.append((probe_index, build_index))
    return out
