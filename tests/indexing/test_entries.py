"""Unit tests for entry collection (the shared extraction pass).

``TestCollectOccurrences`` pins the paper's tuples on the model walk
the tests keep as their reference; ``TestCollectFromBytes`` pins the
write path's walk over a document's bytes to the same tuples.
"""

import pytest

from tests.indexing.extraction_oracle import collect_occurrences

from repro.errors import XMLParseError
from repro.indexing import entries
from repro.indexing.entries import IndexEntry
from repro.xmldb.ids import NodeID
from repro.xmldb.model import number_nodes
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize


class TestIndexEntry:
    def test_kind_classification(self):
        assert IndexEntry(key="k", uri="u").kind == "presence"
        assert IndexEntry(key="k", uri="u", paths=("/ea",)).kind == "paths"
        assert IndexEntry(key="k", uri="u",
                          ids=(NodeID(1, 1, 1),)).kind == "ids"

    def test_paths_and_ids_mutually_exclusive(self):
        with pytest.raises(ValueError):
            IndexEntry(key="k", uri="u", paths=("/ea",),
                       ids=(NodeID(1, 1, 1),))

    def test_ids_must_be_sorted(self):
        with pytest.raises(ValueError):
            IndexEntry(key="k", uri="u",
                       ids=(NodeID(5, 1, 1), NodeID(2, 2, 1)))


class TestCollectOccurrences:
    def test_paper_lui_tuples(self, manet):
        """§5.3's printed LUI tuples for "manet.xml"."""
        occurrences = collect_occurrences(manet)
        assert occurrences["ename"].ids == \
            [NodeID(3, 3, 2), NodeID(6, 8, 3)]
        assert occurrences["aid"].ids == [NodeID(2, 1, 2)]
        assert occurrences["aid 1863-1"].ids == [NodeID(2, 1, 2)]
        assert occurrences["wolympia"].ids == [NodeID(4, 2, 3)]

    def test_paper_lup_tuples(self, manet):
        """§5.2's printed LUP tuples for "manet.xml"."""
        occurrences = collect_occurrences(manet)
        assert list(occurrences["ename"].paths) == \
            ["/epainting/ename", "/epainting/epainter/ename"]
        assert list(occurrences["aid"].paths) == ["/epainting/aid"]
        assert list(occurrences["aid 1863-1"].paths) == \
            ["/epainting/aid 1863-1"]
        assert list(occurrences["wolympia"].paths) == \
            ["/epainting/ename/wolympia"]

    def test_word_keys_skipped_without_full_text(self, manet):
        occurrences = collect_occurrences(manet, include_words=False)
        assert not any(key.startswith("w") for key in occurrences)
        assert "ename" in occurrences

    def test_ids_sorted_by_pre_per_key(self, small_corpus):
        for document in small_corpus.documents[:10]:
            for group in collect_occurrences(document).values():
                pres = [node_id.pre for node_id in group.ids]
                assert pres == sorted(pres)
                assert len(set(pres)) == len(pres)

    def test_repeated_word_across_texts_collects_all_ids(self):
        from repro.xmldb.parser import parse_document
        document = parse_document(
            b"<a><b>gold ring</b><c>gold coin</c></a>", "t.xml")
        occurrences = collect_occurrences(document)
        assert len(occurrences["wgold"].ids) == 2

    def test_paths_deduplicated(self):
        from repro.xmldb.parser import parse_document
        document = parse_document(b"<a><b/><b/></a>", "t.xml")
        occurrences = collect_occurrences(document)
        assert list(occurrences["eb"].paths) == ["/ea/eb"]
        assert len(occurrences["eb"].ids) == 2


class TestCollectFromBytes:
    """The write path's walk: groups of ``pre`` ordinals plus one
    (pre, post, depth) row per node, from the bytes alone."""

    @staticmethod
    def _ids(data, key, include_words=True):
        groups, rows = entries.collect_occurrences(data, "t.xml",
                                                   include_words)
        pres, paths = groups[key]
        return [NodeID(*rows[pre]) for pre in pres], list(paths)

    def test_paper_tuples_from_bytes(self, manet):
        """§5.2/§5.3's printed tuples, from manet.xml's serialization."""
        data = serialize(manet)
        assert self._ids(data, "ename") == (
            [NodeID(3, 3, 2), NodeID(6, 8, 3)],
            ["/epainting/ename", "/epainting/epainter/ename"])
        assert self._ids(data, "aid 1863-1") == (
            [NodeID(2, 1, 2)], ["/epainting/aid 1863-1"])
        assert self._ids(data, "wolympia") == (
            [NodeID(4, 2, 3)], ["/epainting/ename/wolympia"])

    def test_rows_are_the_model_numbering(self, small_corpus):
        for document in small_corpus.documents[:10]:
            _, rows = entries.collect_occurrences(
                small_corpus.data[document.uri], document.uri)
            model = parse_document(small_corpus.data[document.uri],
                                   document.uri)
            assert rows[1:] == [tuple(node_id)
                                for _, node_id, _ in number_nodes(model)]

    def test_text_is_numbered_without_words(self):
        """Word keys off, text nodes still take their ordinals: a tail
        between two children shifts the second child's ID."""
        data = b"<a><b/>gold<c>ring</c></a>"
        assert self._ids(data, "ec", include_words=False)[0] == \
            [NodeID(4, 4, 2)]
        groups, _ = entries.collect_occurrences(data, "t.xml", False)
        assert sorted(groups) == ["ea", "eb", "ec"]

    def test_deep_document_walks(self):
        depth = 5000
        data = b"<a>" * depth + b"gold" + b"</a>" * depth
        ids, paths = self._ids(data, "wgold")
        assert ids == [NodeID(depth + 1, 1, depth + 1)]
        assert paths == ["/ea" * depth + "/wgold"]

    def test_malformed_bytes_raise_typed(self):
        with pytest.raises(XMLParseError):
            entries.collect_occurrences(b"<a><b></a>", "bad.xml")
