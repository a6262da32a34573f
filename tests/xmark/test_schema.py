"""Unit tests for the corpus schema validator."""

import random

import pytest

from repro.config import ScaleProfile
from repro.xmark import heterogeneity
from repro.xmark.generator import XMarkGenerator
from repro.xmark.heterogeneity import heterogenize, restructure
from repro.xmark.schema import REFERENCE_PREFIXES, SCHEMA, validate_document


def validate_references(documents):
    """Dangling references as ``"attr=value"`` strings: every reference
    attribute must target an existing id.  ``watch`` references may
    legitimately dangle (people can watch auctions that were never
    generated at small scales), so they are excluded."""
    defined = {element.attribute("id").value
               for document in documents
               for element in document.iter_elements()
               if element.attribute("id") is not None}
    return ["{}={}".format(attr.name, attr.value)
            for document in documents
            for element in document.iter_elements()
            if element.label != "watch"
            for attr in element.attributes
            if attr.name in REFERENCE_PREFIXES
            and attr.value not in defined]


@pytest.fixture(scope="module")
def pristine():
    """Unmodified generator output (no §8.1 edits)."""
    return XMarkGenerator(ScaleProfile(documents=60, seed=71)).generate()


def test_pristine_documents_validate_cleanly(pristine):
    for generated in pristine:
        violations = validate_document(generated.document, generated.kind)
        assert violations == [], "\n".join(str(v) for v in violations)


def test_references_resolve(pristine):
    dangling = validate_references([g.document for g in pristine])
    assert dangling == []


def test_unknown_kind_rejected(pristine):
    with pytest.raises(KeyError):
        validate_document(pristine[0].document, "paintings")


def test_restructuring_shows_as_violations(pristine):
    rng = random.Random(3)
    flagged = 0
    for generated in pristine:
        if generated.kind != "items":
            continue
        document = generated.document
        if restructure(document, "items", rng):
            violations = validate_document(document, "items")
            kinds = {v.kind for v in violations}
            assert "missing-child" in kinds  # name left the item
            flagged += 1
            break
    assert flagged, "no items document could be restructured"


def test_heterogenisation_shows_as_missing_children(pristine, monkeypatch):
    monkeypatch.setattr(heterogeneity, "DROP_PROBABILITY", 1.0)
    rng = random.Random(4)
    for generated in pristine:
        if generated.kind != "items":
            continue
        document = generated.document
        if heterogenize(document, "items", rng):
            violations = validate_document(document, "items")
            missing = {v.detail for v in violations
                       if v.kind == "missing-child"}
            assert {"payment", "location", "shipping"} <= missing
            return
    pytest.fail("no items document to heterogenise")


def test_schema_covers_all_generator_kinds(pristine):
    assert {g.kind for g in pristine} <= set(SCHEMA)


def test_wrong_root_reported():
    from repro.xmldb.model import Document, Element
    document = Document(uri="x", root=Element(label="zoo"))
    violations = validate_document(document, "items")
    assert violations and violations[0].kind == "unknown-child"
