"""Property-based tests: columnar kernels agree with the row oracles.

The row joins of ``tests/engine/oracles.py`` are the reference; every
kernel in :mod:`repro.engine.columnar` must return exactly what its row
counterpart returns on random trees and twig patterns — including
empty streams, both structural axes, and the degraded-ladder repair
(stable re-sort by pre) path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.engine.oracles import (HolisticTwigJoin, semi_join_ancestors,
                                  semi_join_descendants, stack_tree_join)
from tests.indexing.extraction_oracle import collect_occurrences
from tests.model_helpers import element_ids
from tests.properties.strategies import documents, twig_patterns

from repro.engine.columnar import (BlockTwigJoin, block_semi_join_ancestors,
                                   block_semi_join_descendants,
                                   block_stack_tree_join, flatten_twig,
                                   make_twig_join, twig_exists)
from repro.indexing.keys import element_key
from repro.indexing.lookup_plans import expand_pattern_for_twig
from repro.query.parser import parse_pattern
from repro.xmldb.blocks import IDBlock
from repro.xmldb.encoding import encode_ids
from repro.xmldb.model import number_nodes

pytestmark = pytest.mark.engine

#: Structural-only patterns over the property alphabet (mirrors
#: test_property_engine.PATTERN_TEXTS, plus deeper child chains).
PATTERN_TEXTS = (
    "//a", "//a/b", "//a//b", "//a[/b][/c]", "//a[/b][//c/d]",
    "//item//name", "//a/b/c", "//a[//b][//c][//d]",
)


def _streams(document, pattern):
    streams = {}
    for node in pattern.iter_nodes():
        group = collect_occurrences(document, include_words=False).get(
            element_key(node.label))
        streams[id(node)] = list(group.ids) if group else []
    return streams


def _halves(document):
    ids = element_ids(document)
    return ids[::2], ids[1::2]


@given(documents(), st.sampled_from(PATTERN_TEXTS))
@settings(max_examples=120)
def test_block_twig_join_agrees_with_row_oracle(document, pattern_text):
    """BlockTwigJoin ≡ HolisticTwigJoin on matches, matching roots and
    rows_processed — for eager and for lazily decoded blocks."""
    pattern = parse_pattern(pattern_text)
    row_streams = _streams(document, pattern)
    oracle = HolisticTwigJoin(pattern, row_streams)
    eager = {key: IDBlock.from_ids(ids)
             for key, ids in row_streams.items()}
    lazy = {key: (IDBlock.from_encoded(encode_ids(ids)) if ids
                  else IDBlock.from_ids([]))
            for key, ids in row_streams.items()}
    for blocks in (eager, lazy):
        join = BlockTwigJoin(pattern, blocks)
        assert join.matches() == oracle.matches()
        assert join.matching_roots() == oracle.matching_roots()
        assert join.rows_processed() == oracle.rows_processed()


def _assert_existence_checks_agree(pattern, rows):
    """``twig_exists`` over the twig flattened once ≡ a fresh
    BlockTwigJoin ≡ the row oracle on ``rows`` (one sorted stream per
    pre-order twig position); and the plan-CPU rows are the summed
    stream lengths whether or not a lazy block was ever decoded."""
    nodes, children = flatten_twig(pattern)
    assert nodes == list(pattern.iter_nodes())
    lazy = [IDBlock.from_encoded(encode_ids(ids)) if ids
            else IDBlock.from_ids([]) for ids in rows]
    oracle = HolisticTwigJoin(pattern, dict(zip(map(id, nodes), rows)))
    fresh = BlockTwigJoin(pattern, dict(zip(map(id, nodes), lazy)))
    assert sum(map(len, lazy)) == fresh.rows_processed() \
        == oracle.rows_processed()
    assert twig_exists(children, lazy) == fresh.matches() \
        == oracle.matches() == bool(oracle.matching_roots())
    assert twig_exists(children, rows) == oracle.matches()  # coerced
    assert fresh.matching_roots() == oracle.matching_roots()
    return oracle.matches()


@given(documents(), twig_patterns(), st.booleans())
@settings(max_examples=150)
def test_existence_checks_agree_on_indexed_streams(document, pattern,
                                                   include_words):
    """Random twigs (attribute and word leaves, both axes) against the
    streams a random document's index would serve — many of them
    empty, which kills every embedding before a column is decoded."""
    twig = expand_pattern_for_twig(pattern, include_words)
    occurrences = collect_occurrences(document, include_words=True)
    _assert_existence_checks_agree(twig.pattern, [
        list(occurrences[key].ids) if key in occurrences else []
        for key in (twig.keys[id(node)]
                    for node in twig.pattern.iter_nodes())])


@given(documents(), twig_patterns(), st.integers(0, 2 ** 16))
@settings(max_examples=250)
def test_existence_checks_agree_on_random_sorted_streams(document, pattern,
                                                         seed):
    """The check is purely structural: each twig position gets a random
    sorted subset of one document's node IDs, so about half the twigs
    have a witness and the memoised top-down search really runs."""
    rng = random.Random(seed)
    ids = [nid for _, nid, _ in number_nodes(document)]
    keep = rng.choice((0.5, 0.9, 1.0))
    _assert_existence_checks_agree(pattern, [
        [nid for nid in ids if rng.random() < keep]
        for _ in pattern.iter_nodes()])


@given(documents(), st.sampled_from(PATTERN_TEXTS))
@settings(max_examples=60)
def test_dispatch_preserves_results(document, pattern_text):
    """make_twig_join answers alike over NodeID lists (checked) and
    blocks (trusted), and like the row oracle."""
    pattern = parse_pattern(pattern_text)
    row_streams = _streams(document, pattern)
    block_streams = {key: IDBlock.from_ids(ids)
                     for key, ids in row_streams.items()}
    oracle = HolisticTwigJoin(pattern, row_streams)
    for streams in (row_streams, block_streams):
        join = make_twig_join(pattern, streams)
        assert isinstance(join, BlockTwigJoin)
        assert join.matches() == oracle.matches()
        assert join.matching_roots() == oracle.matching_roots()


@given(documents(), st.booleans())
@settings(max_examples=80)
def test_block_stack_tree_join_agrees(document, parent_child):
    left, right = _halves(document)
    expected = stack_tree_join(left, right, parent_child=parent_child)
    got = block_stack_tree_join(IDBlock.from_ids(left),
                                IDBlock.from_ids(right),
                                parent_child=parent_child)
    assert got == expected


@given(documents(), st.booleans())
@settings(max_examples=80)
def test_block_semi_joins_agree(document, parent_child):
    left, right = _halves(document)
    assert (block_semi_join_descendants(
        left, right, parent_child=parent_child).to_ids()
        == semi_join_descendants(left, right, parent_child=parent_child))
    assert (block_semi_join_ancestors(
        left, right, parent_child=parent_child).to_ids()
        == semi_join_ancestors(left, right, parent_child=parent_child))


@given(documents(), st.sampled_from(PATTERN_TEXTS), st.integers(0, 2 ** 16))
@settings(max_examples=60)
def test_degraded_resort_path_agrees(document, pattern_text, seed):
    """The degradation ladder's repair — a stable re-sort by pre only —
    yields the same twig answers from the kernel as from the oracle."""
    pattern = parse_pattern(pattern_text)
    row_streams = _streams(document, pattern)
    rng = random.Random(seed)
    shuffled = {}
    for key, ids in row_streams.items():
        ids = list(ids)
        rng.shuffle(ids)
        shuffled[key] = ids
    repaired_rows = {key: sorted(ids, key=lambda nid: nid.pre)
                     for key, ids in shuffled.items()}
    repaired_blocks = {key: IDBlock.from_ids(ids).sorted_by_pre()
                       for key, ids in shuffled.items()}
    oracle = HolisticTwigJoin(pattern, repaired_rows)
    join = BlockTwigJoin(pattern, repaired_blocks)
    assert join.matches() == oracle.matches()
    assert join.matching_roots() == oracle.matching_roots()


@given(documents())
@settings(max_examples=60)
def test_lazy_round_trip_preserves_ids(document):
    ids = element_ids(document)
    block = IDBlock.from_encoded(encode_ids(ids))
    assert len(block) == len(ids)  # count without decode
    assert block.to_ids() == ids
