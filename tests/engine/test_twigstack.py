"""Unit tests for the row holistic twig join oracle (existence
semantics) that the columnar kernels are held to."""

import pytest

from tests.engine.oracles import HolisticTwigJoin

from repro.errors import EvaluationError
from repro.query.parser import parse_pattern
from repro.xmldb.ids import NodeID


def _streams_for(pattern, mapping):
    """Build the id(node) -> ids mapping from a label -> ids dict."""
    streams = {}
    for node in pattern.iter_nodes():
        streams[id(node)] = mapping.get(node.label, [])
    return streams


def test_single_node_matches_iff_stream_nonempty():
    pattern = parse_pattern("//a")
    assert HolisticTwigJoin(
        pattern, _streams_for(pattern, {"a": [NodeID(1, 1, 1)]})).matches()
    assert not HolisticTwigJoin(
        pattern, _streams_for(pattern, {})).matches()


def test_descendant_edge():
    pattern = parse_pattern("//a//b")
    streams = _streams_for(pattern, {
        "a": [NodeID(1, 4, 1)],
        "b": [NodeID(3, 2, 3)],  # grandchild
    })
    assert HolisticTwigJoin(pattern, streams).matches()


def test_child_edge_rejects_grandchild():
    pattern = parse_pattern("//a/b")
    streams = _streams_for(pattern, {
        "a": [NodeID(1, 4, 1)],
        "b": [NodeID(3, 2, 3)],  # depth 3: grandchild, not child
    })
    assert not HolisticTwigJoin(pattern, streams).matches()


def test_child_edge_accepts_child():
    pattern = parse_pattern("//a/b")
    streams = _streams_for(pattern, {
        "a": [NodeID(1, 4, 1)],
        "b": [NodeID(2, 1, 2)],
    })
    assert HolisticTwigJoin(pattern, streams).matches()


def test_branches_must_combine_under_one_root():
    """The LUP-vs-LUI separator: both branches exist, but under
    different root occurrences."""
    pattern = parse_pattern("//a[/b][/c]")
    streams = _streams_for(pattern, {
        # Two a-nodes: first has b, second has c — no single a has both.
        "a": [NodeID(1, 2, 2), NodeID(4, 5, 2)],
        "b": [NodeID(2, 1, 3)],
        "c": [NodeID(5, 4, 3)],
    })
    join = HolisticTwigJoin(pattern, streams)
    assert not join.matches()
    assert join.matching_roots() == []


def test_branches_combined():
    pattern = parse_pattern("//a[/b][/c]")
    streams = _streams_for(pattern, {
        "a": [NodeID(1, 3, 2)],
        "b": [NodeID(2, 1, 3)],
        "c": [NodeID(3, 2, 3)],
    })
    join = HolisticTwigJoin(pattern, streams)
    assert join.matching_roots() == [NodeID(1, 3, 2)]


def test_matches_evaluator_on_real_documents(small_corpus):
    """The twig join agrees with direct evaluation (structural-only
    patterns) on every corpus document — the correctness anchor of LUI."""
    from repro.engine.evaluator import pattern_matches
    from tests.indexing.extraction_oracle import collect_occurrences
    from repro.indexing.keys import element_key

    patterns = [
        parse_pattern("//item/mailbox/mail"),
        parse_pattern("//person[/address/city][/profile]"),
        parse_pattern("//open_auction[/itemref][/seller]"),
        parse_pattern("//item[/name][/description//listitem]"),
    ]
    checked_positive = 0
    for document in small_corpus.documents:
        occurrences = collect_occurrences(document, include_words=False)
        for pattern in patterns:
            streams = {}
            for node in pattern.iter_nodes():
                group = occurrences.get(element_key(node.label))
                streams[id(node)] = list(group.ids) if group else []
            twig = HolisticTwigJoin(pattern, streams).matches()
            direct = pattern_matches(pattern, document)
            assert twig == direct, (document.uri, str(pattern))
            checked_positive += int(direct)
    assert checked_positive > 0, "patterns never matched; test is vacuous"


def test_unsorted_stream_rejected():
    pattern = parse_pattern("//a")
    streams = {id(pattern.root): [NodeID(5, 5, 1), NodeID(2, 2, 1)]}
    with pytest.raises(EvaluationError):
        HolisticTwigJoin(pattern, streams)


def test_rows_processed_counts_streams():
    pattern = parse_pattern("//a/b")
    streams = _streams_for(pattern, {
        "a": [NodeID(1, 4, 1), NodeID(5, 8, 1)],
        "b": [NodeID(2, 1, 2)],
    })
    assert HolisticTwigJoin(pattern, streams).rows_processed() == 3


def test_missing_stream_means_no_match():
    pattern = parse_pattern("//a/b")
    join = HolisticTwigJoin(pattern, {id(pattern.root): [NodeID(1, 1, 1)]})
    assert not join.matches()
