"""Unit tests for the columnar IDBlock container and array kernels."""

import pytest

from tests.engine.oracles import (HolisticTwigJoin, semi_join_ancestors,
                                  semi_join_descendants, stack_tree_join)

from repro.engine.columnar import (BlockTwigJoin, KernelStats,
                                   block_semi_join_ancestors,
                                   block_semi_join_descendants,
                                   block_stack_tree_join, hash_join_indices,
                                   make_twig_join)
from repro.errors import EncodingError, EvaluationError
from repro.query.parser import parse_pattern
from repro.xmldb.blocks import IDBlock, as_block
from repro.xmldb.encoding import encode_ids
from repro.xmldb.ids import NodeID

pytestmark = pytest.mark.engine


def _chain(*triples):
    return [NodeID(*t) for t in triples]


# -- IDBlock container ------------------------------------------------------


def test_from_ids_round_trips():
    ids = _chain((1, 6, 1), (2, 3, 2), (4, 5, 2))
    block = IDBlock.from_ids(ids)
    assert len(block) == 3
    assert list(block) == ids
    assert block.to_ids() == ids
    assert block == ids
    assert block[1] == ids[1]
    assert block[1:] == ids[1:]


def test_from_encoded_is_lazy_until_column_access():
    ids = _chain((1, 6, 1), (2, 3, 2), (4, 5, 2))
    block = IDBlock.from_encoded(encode_ids(ids))
    assert block.is_lazy
    # len/bool/rows accounting never force the decode.
    assert len(block) == 3
    assert bool(block)
    assert block.is_lazy
    assert block.pres[0] == 1  # first column access inflates
    assert not block.is_lazy
    assert block.to_ids() == ids


def test_nbytes_stays_fixed_through_decode():
    """A block's cache weight is fixed when it is made: the encoded
    length of a wrapped blob, whether a join forced it or not, and
    column bytes for a block built from IDs or merged from chunks."""
    ids = _chain((1, 2, 1), (3, 4, 1))
    blob = encode_ids(ids)
    block = IDBlock.from_encoded(blob)
    assert block.nbytes == len(blob)
    block.pres
    assert not block.is_lazy and block.nbytes == len(blob)
    assert IDBlock.from_ids(ids).nbytes == 2 * 24
    merged = IDBlock.from_encoded_chunks([blob, encode_ids(
        _chain((5, 6, 1)))])
    assert merged.nbytes == 3 * 24


def test_from_encoded_chunks_merges_and_dedupes():
    first = _chain((1, 2, 1), (3, 4, 1))
    second = _chain((3, 4, 1), (5, 6, 1))  # redelivered overlap
    merged = IDBlock.from_encoded_chunks(
        [encode_ids(first), encode_ids(second)])
    assert merged.to_ids() == _chain((1, 2, 1), (3, 4, 1), (5, 6, 1))
    single = IDBlock.from_encoded_chunks([encode_ids(first)])
    assert single.is_lazy  # one blob keeps the lazy fast path


def test_corrupt_bytes_raise_on_decode():
    ids = _chain((1, 2, 1), (3, 4, 1))
    blob = bytearray(encode_ids(ids))
    blob[4] = 0  # second pre delta becomes 0: unsorted on the wire
    block = IDBlock.from_encoded(bytes(blob))
    assert block.is_lazy  # construction stays cheap ...
    with pytest.raises(EncodingError):
        block.pres  # ... corruption surfaces at first column access
    with pytest.raises(EncodingError):
        IDBlock.from_encoded(encode_ids(ids)[:-1]).pres  # truncated


def test_check_sorted_raises_evaluation_error():
    block = IDBlock.from_ids(_chain((4, 5, 2), (1, 6, 1)))
    assert not block.is_sorted_by_pre()
    with pytest.raises(EvaluationError):
        block.check_sorted("ancestor")
    repaired = block.sorted_by_pre()
    repaired.check_sorted("ancestor")
    assert [n.pre for n in repaired] == [1, 4]


def test_as_block_passthrough_and_empty():
    block = IDBlock.from_ids(_chain((1, 2, 1)))
    assert as_block(block) is block
    assert len(as_block(None)) == 0
    assert not as_block([])


# -- kernels against row oracles -------------------------------------------


def _tree_ids():
    # a(1) > b(2) > c(3), then sibling b(5) > c(6) under a second a(4).
    ancestors = _chain((1, 7, 1), (4, 14, 1))
    middles = _chain((2, 3, 2), (5, 6, 2), (9, 10, 2))
    leaves = _chain((3, 2, 3), (6, 5, 3), (10, 9, 3), (12, 12, 3))
    return ancestors, middles, leaves


def test_block_stack_tree_join_matches_row_oracle():
    ancestors, _, leaves = _tree_ids()
    expected = stack_tree_join(ancestors, leaves)
    got = block_stack_tree_join(IDBlock.from_ids(ancestors),
                                IDBlock.from_ids(leaves))
    assert got == expected
    strict = block_stack_tree_join(ancestors, leaves, parent_child=True)
    assert strict == stack_tree_join(ancestors, leaves, parent_child=True)


def test_validation_gating_on_kernels():
    unsorted = _chain((4, 5, 2), (1, 6, 1))
    sorted_ids = _chain((2, 3, 3), (5, 4, 3))
    # Off by default on the block kernels (blocks are sorted by
    # construction on the index path) ...
    block_stack_tree_join(unsorted, sorted_ids)
    # ... and explicit opt-in still catches corrupt input.
    with pytest.raises(EvaluationError):
        block_stack_tree_join(unsorted, sorted_ids, validate=True)
    with pytest.raises(EvaluationError):
        block_semi_join_descendants(unsorted, sorted_ids, validate=True)
    with pytest.raises(EvaluationError):
        block_semi_join_ancestors(unsorted, sorted_ids, validate=True)
    pattern = parse_pattern("//a")
    BlockTwigJoin(pattern, {id(pattern.root): unsorted})  # default: off
    with pytest.raises(EvaluationError):
        BlockTwigJoin(pattern, {id(pattern.root): unsorted},
                      validate=True)


def test_semi_join_duplicate_heavy_regression():
    """Nested, duplicate-heavy ancestor chains: identical output to the
    row semi-joins with strictly fewer pairs enumerated than the full
    pair join materialises."""
    # Ten nested ancestors all containing every one of ten leaves.
    ancestors = [NodeID(i, 40 - i, i) for i in range(1, 11)]
    leaves = [NodeID(10 + j, 10 + j, 12) for j in range(1, 11)]
    full_pairs = stack_tree_join(ancestors, leaves)
    assert len(full_pairs) == 100

    stats = KernelStats()
    desc = block_semi_join_descendants(ancestors, leaves, stats=stats)
    assert desc.to_ids() == semi_join_descendants(ancestors, leaves)
    assert stats.pairs_enumerated < len(full_pairs)

    stats = KernelStats()
    anc = block_semi_join_ancestors(ancestors, leaves, stats=stats)
    assert anc.to_ids() == semi_join_ancestors(ancestors, leaves)
    assert stats.pairs_enumerated < len(full_pairs)

    # Parent/child axis agrees too.
    assert (block_semi_join_ancestors(ancestors, leaves,
                                      parent_child=True).to_ids()
            == semi_join_ancestors(ancestors, leaves, parent_child=True))
    assert (block_semi_join_descendants(ancestors, leaves,
                                        parent_child=True).to_ids()
            == semi_join_descendants(ancestors, leaves,
                                     parent_child=True))


def test_semi_join_output_is_duplicate_free_and_ordered():
    ancestors, middles, leaves = _tree_ids()
    anc = block_semi_join_ancestors(middles, leaves)
    assert anc.to_ids() == semi_join_ancestors(middles, leaves)
    pres = [n.pre for n in anc]
    assert pres == sorted(set(pres))


def test_twig_join_dispatch_and_equivalence():
    pattern = parse_pattern("//a[/b][//c]")
    nodes = list(pattern.iter_nodes())
    ancestors, middles, leaves = _tree_ids()
    by_label = {"a": ancestors, "b": middles, "c": leaves}
    row_streams = {id(n): by_label[n.label] for n in nodes}
    block_streams = {id(n): IDBlock.from_ids(by_label[n.label])
                     for n in nodes}
    lazy_streams = {id(n): IDBlock.from_encoded(
        encode_ids(by_label[n.label])) for n in nodes}

    oracle = HolisticTwigJoin(pattern, row_streams)
    assert oracle.matches()
    for streams in (row_streams, block_streams, lazy_streams):
        blk = make_twig_join(pattern, streams)
        assert isinstance(blk, BlockTwigJoin)
        assert blk.matches() == oracle.matches()
        assert blk.matching_roots() == oracle.matching_roots()
        assert blk.rows_processed() == oracle.rows_processed()


def test_twig_join_validates_hand_built_streams_by_default():
    """Unsorted NodeID streams raise a typed error rather than answer
    wrongly; index blocks, sorted by construction, are not re-checked."""
    pattern = parse_pattern("//a/b")
    a_node, b_node = pattern.iter_nodes()
    unsorted = _chain((4, 5, 2), (1, 6, 1))
    children = _chain((2, 3, 2))
    with pytest.raises(EvaluationError):
        make_twig_join(pattern, {id(a_node): unsorted,
                                 id(b_node): children})
    make_twig_join(pattern, {id(a_node): unsorted, id(b_node): children},
                   validate=False)
    make_twig_join(pattern, {id(a_node): IDBlock.from_ids(unsorted),
                             id(b_node): children})


def test_twig_join_empty_stream_short_circuits_without_decode():
    pattern = parse_pattern("//a/b")
    nodes = list(pattern.iter_nodes())
    ancestors, middles, _ = _tree_ids()
    lazy = IDBlock.from_encoded(encode_ids(ancestors))
    streams = {id(nodes[0]): lazy, id(nodes[1]): IDBlock.from_ids([])}
    join = BlockTwigJoin(pattern, streams)
    assert not join.matches()
    assert lazy.is_lazy  # the non-empty stream was never decoded


def test_hash_join_indices_matches_nested_loop():
    build = ["x", "y", "x", None]
    probe = ["y", "x", "z", "x"]
    expected = [(pi, bi) for pi, pk in enumerate(probe)
                for bi, bk in enumerate(build) if pk == bk]
    assert sorted(hash_join_indices(build, probe)) == sorted(expected)
