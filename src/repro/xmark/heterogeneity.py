"""The two §8.1 corpus modifications.

The paper needed "an XML corpus with some heterogeneity" to test index
selectivity, so it modified two disjoint fractions of the generated
documents:

1. :func:`restructure` — "alter their path structure (while preserving
   their labels)": existing elements are re-parented under other
   existing labels.  A restructured document still contains every label
   it used to (LU cannot tell the difference) but no longer contains the
   original root-to-leaf *paths* (LUP and finer indexes exclude it) —
   the source of the LU-vs-LUP precision gap in Table 5.

2. :func:`heterogenize` — "rendering more elements optional children of
   their parents, whereas they were compulsory in XMark": compulsory
   children are dropped with some probability, so fewer documents match
   any given query at all.

Both return ``True`` when they changed the document; callers must then
re-serialize it.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.xmldb.model import Document, Element

#: Per-kind elements that restructuring moves: (entity label, moved
#: child label, new parent label under the same entity).
_RESTRUCTURE_MOVES = {
    "items": ("item", "name", "description"),
    "people": ("person", "address", "profile"),
    "auctions": ("open_auction", "itemref", "annotation"),
    "closed": ("closed_auction", "price", "annotation"),
    "categories": ("category", "name", "description"),
}

#: Per-kind compulsory children that heterogenisation may drop.
_DROP_CANDIDATES = {
    "items": ("item", ("payment", "location", "shipping")),
    "people": ("person", ("emailaddress",)),
    "auctions": ("open_auction", ("quantity", "type")),
    "closed": ("closed_auction", ("date", "quantity")),
    "categories": ("category", ()),
}


def _direct_child(element: Element, label: str) -> Optional[Element]:
    for child in element.child_elements():
        if child.label == label:
            return child
    return None


def restructure(document: Document, kind: str, rng: random.Random) -> bool:
    """Re-parent one child per entity under another existing child.

    E.g. in an ``items`` document, each ``item``'s ``name`` moves under
    its ``description``: the document still contains ``name`` elements,
    but the path ``/items/item/name`` is gone.
    """
    entity_label, moved_label, target_label = _RESTRUCTURE_MOVES[kind]
    changed = False
    for entity in document.root.iter_elements():
        if entity.label != entity_label:
            continue
        moved = _direct_child(entity, moved_label)
        target = _direct_child(entity, target_label)
        if moved is None or target is None or moved is target:
            continue
        entity.children.remove(moved)
        target.children.append(moved)
        changed = True
    return changed


#: Chance that :func:`heterogenize` drops each compulsory child.
DROP_PROBABILITY = 0.6


def heterogenize(document: Document, kind: str,
                 rng: random.Random) -> bool:
    """Drop otherwise-compulsory children, each with
    :data:`DROP_PROBABILITY`."""
    entity_label, candidates = _DROP_CANDIDATES[kind]
    if not candidates:
        return False
    changed = False
    for entity in document.root.iter_elements():
        if entity.label != entity_label:
            continue
        survivors: List = []
        for child in entity.children:
            if (isinstance(child, Element) and child.label in candidates
                    and rng.random() < DROP_PROBABILITY):
                changed = True
                continue
            survivors.append(child)
        entity.children = survivors
    return changed
