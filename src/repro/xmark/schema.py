"""Structural schema of the generated corpus, with a validator.

The generator emits five document kinds; this module records their
expected structure (required/optional children per entity, attribute
names, reference-valued attributes) and provides
:func:`validate_document`, used by the generator's tests and available
to users who modify the generator.  Restructured/heterogenised
documents intentionally *violate* parts of the schema — the validator
reports violations rather than raising, so tests can assert both that
pristine documents are clean and that the §8.1 modifications show up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.xmldb.model import Document, Element


@dataclass(frozen=True)
class EntityRule:
    """Expected shape of one entity element."""

    label: str
    required_children: Tuple[str, ...] = ()
    optional_children: Tuple[str, ...] = ()
    required_attributes: Tuple[str, ...] = ()
    optional_attributes: Tuple[str, ...] = ()
    #: attribute name -> id prefix it must reference ("person", ...).
    reference_attributes: Dict[str, str] = field(default_factory=dict)

    @property
    def known_children(self) -> Tuple[str, ...]:
        """Required plus optional child labels."""
        return self.required_children + self.optional_children


#: Document kind -> (root label, entity rule).
SCHEMA: Dict[str, Tuple[str, EntityRule]] = {
    "items": ("items", EntityRule(
        label="item",
        required_children=("location", "quantity", "name", "payment",
                           "description", "shipping", "incategory"),
        optional_children=("mailbox",),
        required_attributes=("id",),
        optional_attributes=("featured",),
        reference_attributes={},
    )),
    "people": ("people", EntityRule(
        label="person",
        required_children=("name", "emailaddress"),
        optional_children=("phone", "address", "homepage", "creditcard",
                           "profile", "watches"),
        required_attributes=("id",),
    )),
    "auctions": ("auctions", EntityRule(
        label="open_auction",
        required_children=("initial", "current", "itemref", "seller",
                           "annotation", "quantity", "type", "interval"),
        optional_children=("reserve", "bidder", "privacy"),
        required_attributes=("id",),
    )),
    "closed": ("closed", EntityRule(
        label="closed_auction",
        required_children=("seller", "buyer", "itemref", "price", "date",
                           "quantity", "type", "annotation"),
    )),
    "categories": ("categories", EntityRule(
        label="category",
        required_children=("name", "description"),
        required_attributes=("id",),
    )),
}

#: Attribute name -> entity id prefix, for cross-reference checking.
REFERENCE_PREFIXES: Dict[str, str] = {
    "person": "person",
    "item": "item",
    "category": "cat",
    "open_auction": "open",
}


@dataclass
class Violation:
    """One schema violation found in a document."""

    uri: str
    entity_label: str
    kind: str       # "missing-child" | "unknown-child" | "missing-attr"
    detail: str

    def __str__(self) -> str:
        return "{}: {} {} ({})".format(self.uri, self.entity_label,
                                       self.kind, self.detail)


def validate_document(document: Document, doc_kind: str) -> List[Violation]:
    """Check ``document`` against its kind's schema; return violations.

    Pristine generator output validates cleanly; restructured documents
    report ``missing-child`` for the moved element (and possibly
    ``unknown-child`` where it landed); heterogenised documents report
    ``missing-child`` for dropped compulsory children.
    """
    if doc_kind not in SCHEMA:
        raise KeyError("unknown document kind {!r}".format(doc_kind))
    root_label, rule = SCHEMA[doc_kind]
    violations: List[Violation] = []
    if document.root.label != root_label:
        violations.append(Violation(
            document.uri, document.root.label, "unknown-child",
            "root should be {!r}".format(root_label)))
        return violations
    for entity in document.root.child_elements():
        if entity.label != rule.label:
            violations.append(Violation(
                document.uri, entity.label, "unknown-child",
                "expected only {!r} entities".format(rule.label)))
            continue
        violations.extend(_validate_entity(document.uri, entity, rule))
    return violations


def _validate_entity(uri: str, entity: Element,
                     rule: EntityRule) -> List[Violation]:
    out: List[Violation] = []
    child_labels = [child.label for child in entity.child_elements()]
    for required in rule.required_children:
        if required not in child_labels:
            out.append(Violation(uri, rule.label, "missing-child",
                                 required))
    for label in child_labels:
        if label not in rule.known_children:
            out.append(Violation(uri, rule.label, "unknown-child", label))
    attr_names = {attr.name for attr in entity.attributes}
    for required in rule.required_attributes:
        if required not in attr_names:
            out.append(Violation(uri, rule.label, "missing-attr",
                                 required))
    return out

