"""Unit tests for corpus assembly and slicing."""

import dataclasses
import hashlib
from collections import Counter

import pytest

from repro.config import TEST_SCALE, ScaleProfile
from repro.errors import ConfigError
from repro.xmark import generate_corpus
from repro.xmldb.parser import parse_document


def test_corpus_consistency(small_corpus):
    assert len(small_corpus) == len(small_corpus.documents)
    assert set(small_corpus.data) == \
        {d.uri for d in small_corpus.documents}
    assert small_corpus.total_bytes == \
        sum(len(v) for v in small_corpus.data.values())


def test_modified_fractions_applied(small_corpus):
    assert small_corpus.restructured > 0
    assert small_corpus.heterogenized > 0


def test_data_matches_documents(small_corpus):
    for document in small_corpus.documents[:10]:
        reparsed = parse_document(small_corpus.data[document.uri],
                                  document.uri)
        assert reparsed.node_count() == document.node_count()


def test_document_lookup(small_corpus):
    uri = small_corpus.documents[3].uri
    assert small_corpus.document(uri).uri == uri
    with pytest.raises(KeyError):
        small_corpus.document("missing.xml")


def _stats_digest(stats):
    fields = []
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, Counter):
            value = sorted(value.items())
        elif isinstance(value, set):
            value = sorted(value)
        fields.append((field.name, value))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _bytes_digest(corpus):
    digest = hashlib.sha256()
    for document in corpus.documents:
        for part in (document.uri.encode(), corpus.data[document.uri]):
            digest.update(part)
            digest.update(b"\0")
    return digest.hexdigest()


#: ``TEST_SCALE`` and a 400-document ``ScaleProfile()``: digests of the
#: corpus bytes and of ``Corpus.stats()``, taken when every model node
#: still stored its identifier and path.  Numbering moved to a walk;
#: neither the bytes nor the statistics may move with it.
_PINNED = {
    40: ("0c62ec937fb370440d590aafe4c586a548ec167de74e25f49a4dbe62227fcfcf",
         "75f028161e3a03e5c2ee0320efd8b53b5cfdc49be6cbcbefd5b94bb5cbfcfec9"),
    400: ("afcae7766d838e255d059998ffe9d5cf55ef9afbdcad6ccdea840786c09b98a9",
          "018e860e812bf88c585d91327620a646f039790a316eaf32293bb6cf1a9ce5de"),
}


@pytest.mark.parametrize("documents", sorted(_PINNED))
def test_corpus_bytes_and_stats_are_pinned(documents):
    corpus = generate_corpus(TEST_SCALE if documents == TEST_SCALE.documents
                             else ScaleProfile(documents=documents))
    assert (_bytes_digest(corpus), _stats_digest(corpus.stats())) == \
        _PINNED[documents]


def test_deterministic_generation():
    scale = ScaleProfile(documents=25, seed=99)
    first = generate_corpus(scale)
    second = generate_corpus(scale)
    assert first.data == second.data


class TestPrefix:
    def test_fraction_bounds(self, small_corpus):
        with pytest.raises(ConfigError):
            small_corpus.prefix(0.0)
        with pytest.raises(ConfigError):
            small_corpus.prefix(1.5)

    def test_full_prefix_is_whole_corpus(self, small_corpus):
        assert len(small_corpus.prefix(1.0)) == len(small_corpus)

    def test_half_prefix_size(self, small_corpus):
        half = small_corpus.prefix(0.5)
        assert len(half) == len(small_corpus) // 2

    def test_prefix_is_stratified(self, small_corpus):
        """Slices sample every document kind, not just the head block."""
        half = small_corpus.prefix(0.5)
        kinds = {half.kinds[uri] for uri in half.data}
        assert len(kinds) >= 3

    def test_prefix_bytes_roughly_proportional(self, small_corpus):
        half = small_corpus.prefix(0.5)
        ratio = half.total_bytes / small_corpus.total_bytes
        assert 0.3 < ratio < 0.7

    def test_prefix_documents_come_from_parent(self, small_corpus):
        quarter = small_corpus.prefix(0.25)
        for document in quarter.documents:
            assert small_corpus.data[document.uri] == \
                quarter.data[document.uri]


def test_restructured_and_heterogeneous_fractions_disjoint():
    """A document gets at most one §8.1 modification."""
    scale = ScaleProfile(documents=50, restructured_fraction=0.5,
                         heterogeneous_fraction=0.5, seed=5)
    corpus = generate_corpus(scale)
    assert corpus.restructured + corpus.heterogenized <= 50


def test_fractions_validation():
    with pytest.raises(ConfigError):
        ScaleProfile(restructured_fraction=0.7, heterogeneous_fraction=0.7)
    with pytest.raises(ConfigError):
        ScaleProfile(documents=0)
    with pytest.raises(ConfigError):
        ScaleProfile(restructured_fraction=-0.1)
