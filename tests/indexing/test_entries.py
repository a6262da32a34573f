"""Unit tests for entry collection (the shared extraction pass)."""

import pytest

from repro.indexing.entries import IndexEntry, collect_occurrences
from repro.xmldb.ids import NodeID


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
