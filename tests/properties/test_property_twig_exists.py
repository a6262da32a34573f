"""Property tests for ``twig_exists`` stated over explicit state.

The check recurses through a module-level function, not a closure, so
its contract is pinned here from the outside: on generated twigs and
ID streams it answers what a brute-force embedding search over
``NodeID.is_ancestor_of`` / ``is_parent_of`` answers (and what the
bottom-up ``BlockTwigJoin`` computes), and it stays lazy — a stream on
a branch whose parent edge has already failed is never decoded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.strategies import documents, twig_patterns

from repro.engine.columnar import BlockTwigJoin, flatten_twig, twig_exists
from repro.query.parser import parse_pattern
from repro.xmldb.blocks import IDBlock
from repro.xmldb.encoding import encode_ids
from repro.xmldb.ids import NodeID
from repro.xmldb.model import number_nodes

pytestmark = pytest.mark.engine


def _embeds(children, rows, position, node_id):
    """Whether ``node_id`` roots an embedding of the sub-twig at
    ``position`` — the definition, with no early exit and no memo."""
    return all(
        any((node_id.is_ancestor_of(candidate) if descendant
             else node_id.is_parent_of(candidate))
            and _embeds(children, rows, child, candidate)
            for candidate in rows[child])
        for child, descendant in children[position])


def _edge_holds(rows, parent, child, descendant):
    return any(a.is_ancestor_of(d) if descendant else a.is_parent_of(d)
               for a in rows[parent] for d in rows[child])


def _subtree(children, position):
    yield position
    for child, _ in children[position]:
        yield from _subtree(children, child)


def _must_stay_lazy(children, rows):
    """Positions no correct lazy check may decode: everything when a
    stream is empty or the twig is one node; otherwise, below a reached
    position, whatever hangs under the first child whose edge no entry
    satisfies and under every sibling after it."""
    if not all(rows) or not children[0]:
        return set(range(len(rows)))
    lazy = set()
    reached = [0]
    while reached:
        position = reached.pop()
        for order, (child, descendant) in enumerate(children[position]):
            if _edge_holds(rows, position, child, descendant):
                reached.append(child)
                continue
            lazy.update(p for p in _subtree(children, child) if p != child)
            for sibling, _ in children[position][order + 1:]:
                lazy.update(_subtree(children, sibling))
            break
    return lazy


def _lazy_blocks(rows):
    return [IDBlock.from_encoded(encode_ids(ids)) if ids
            else IDBlock.from_ids([]) for ids in rows]


def _check(pattern, rows):
    nodes, children = flatten_twig(pattern)
    expected = all(rows) and any(
        _embeds(children, rows, 0, root) for root in rows[0])
    blocks = _lazy_blocks(rows)
    assert twig_exists(children, blocks) == expected
    decoded = {position for position, (ids, block)
               in enumerate(zip(rows, blocks)) if ids and not block.is_lazy}
    assert not decoded & _must_stay_lazy(children, rows)
    # A decoded position was reached through a decoded parent.
    for position, below in enumerate(children):
        for child, _ in below:
            assert child not in decoded or position in decoded
    join = BlockTwigJoin(pattern, dict(zip(map(id, nodes),
                                           _lazy_blocks(rows))))
    assert join.matches() == expected == bool(join.matching_roots())
    return expected


@given(documents(), st.integers(0, 2).flatmap(twig_patterns),
       st.randoms(use_true_random=False))
@settings(max_examples=250)
def test_twig_exists_is_the_embedding_search_and_stays_lazy(
        document, pattern, rng):
    """Every twig position draws a random subset of one document's node
    IDs — often the same ID at a parent and its child position
    (ancestor = self is not an ancestor), often empty."""
    ids = [nid for _, nid, _ in number_nodes(document)]
    keep = rng.choice((0.0, 0.4, 0.8, 1.0))
    _check(pattern, [[nid for nid in ids if rng.random() < keep]
                     for _ in pattern.iter_nodes()])


#: a(1,8,1) > [x(2,3,2) > b(3,2,3) > b(4,1,4)] , b(5,4,2), c(6,7,2) > b(7,6,3)
A, X, B3, B4, B2, C, CB = (NodeID(1, 8, 1), NodeID(2, 3, 2), NodeID(3, 2, 3),
                           NodeID(4, 1, 4), NodeID(5, 4, 2), NodeID(6, 7, 2),
                           NodeID(7, 6, 3))


@pytest.mark.parametrize("text, rows, expected", [
    # Single-node twig: any non-empty stream matches, an empty one never.
    ("//a", [[A]], True),
    ("//a", [[]], False),
    # Ancestor = self: a node is neither its own descendant nor child.
    ("//a//a", [[A], [A]], False),
    ("//b/b", [[B3], [B3]], False),
    ("//b/b", [[B3, B4], [B3, B4]], True),
    # Child-depth ties: deeper descendants sort before the real child.
    ("//a/b", [[A], [B3, B4, B2]], True),
    ("//a/b", [[A], [B3, B4, CB]], False),
    ("//a//b", [[A], [CB]], True),
    # Two candidates at the child depth; only the later one has the leaf.
    ("//a/x/b", [[A], [X, C], [CB]], True),
    ("//a/x/b", [[A], [X, C], [B4]], False),
    # An empty stream anywhere kills the twig before anything is decoded.
    ("//a[/x][/b]", [[A], [X], []], False),
])
def test_twig_exists_on_named_ties(text, rows, expected):
    assert _check(parse_pattern(text), rows) is expected
