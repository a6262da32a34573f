"""Unit tests for the XMark-style document generator."""

from tests.model_helpers import elements_by_label

from repro.config import ScaleProfile
from repro.xmark.generator import KIND_MIX, XMarkGenerator
from repro.xmldb.parser import parse_document
from repro.xmldb.serializer import serialize


def _generate(documents=30, seed=7, **kwargs):
    scale = ScaleProfile(documents=documents, seed=seed, **kwargs)
    return XMarkGenerator(scale).generate()


def test_document_count_matches_scale():
    assert len(_generate(documents=30)) == 30
    assert len(_generate(documents=1)) == 1


def test_all_kinds_present_at_moderate_scale():
    kinds = {g.kind for g in _generate(documents=30)}
    assert kinds == {name for name, _ in KIND_MIX}


def test_deterministic_for_seed():
    first = _generate(documents=20, seed=42)
    second = _generate(documents=20, seed=42)
    assert [g.data for g in first] == [g.data for g in second]


def test_different_seed_different_corpus():
    first = _generate(documents=20, seed=1)
    second = _generate(documents=20, seed=2)
    assert [g.data for g in first] != [g.data for g in second]


def test_documents_are_well_formed():
    for generated in _generate(documents=25):
        reparsed = parse_document(generated.data, generated.document.uri)
        assert reparsed.node_count() == generated.document.node_count()


def test_serialized_bytes_match_document():
    for generated in _generate(documents=10):
        assert serialize(generated.document) == generated.data
        assert generated.document.size_bytes == len(generated.data)


def test_uris_unique_and_kind_prefixed():
    generated = _generate(documents=30)
    uris = [g.document.uri for g in generated]
    assert len(set(uris)) == len(uris)
    for g in generated:
        assert g.document.uri.startswith(g.kind)


def test_cross_references_resolvable():
    """Auction person/item references point to generated entities."""
    generated = _generate(documents=60)
    person_ids = set()
    item_ids = set()
    for g in generated:
        for person in elements_by_label(g.document, "person"):
            person_ids.add(person.attribute("id").value)
        for item in elements_by_label(g.document, "item"):
            item_ids.add(item.attribute("id").value)
    referenced_persons = set()
    referenced_items = set()
    for g in generated:
        for seller in elements_by_label(g.document, "seller"):
            referenced_persons.add(seller.attribute("person").value)
        for itemref in elements_by_label(g.document, "itemref"):
            referenced_items.add(itemref.attribute("item").value)
    assert referenced_persons and referenced_persons <= person_ids
    assert referenced_items and referenced_items <= item_ids


def test_document_bytes_scales_prose():
    small = _generate(documents=30, document_bytes=2 * 1024)
    large = _generate(documents=30, document_bytes=32 * 1024)
    small_total = sum(len(g.data) for g in small)
    large_total = sum(len(g.data) for g in large)
    assert large_total > 2 * small_total
