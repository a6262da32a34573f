"""Cost attribution: price a trace per span.

Every :class:`~repro.sim.metering.MeterRecord` carries the id of the
span that was active when the operation ran, so the request half of the
bill can be folded back onto the span tree: "this twig join cost
$0.0004, 78% of it DynamoDB reads".  Two views:

- *direct* costs (:func:`span_direct_costs`): requests issued while a
  span was the innermost active one;
- *inclusive* costs (:func:`span_inclusive_costs`): a span plus its
  whole subtree — what the Chrome-trace rectangle actually cost.

Records with span id 0 (emitted outside any span) land in the
``untraced`` bucket, so the sum of root-span inclusive costs plus
untraced always equals the estimator's request total for the run —
asserted in ``tests/telemetry/test_cost_attribution.py``.

Imports from :mod:`repro.costs` are deferred into the functions:
``repro.costs`` imports ``repro.sim`` which imports this package, and
the lazy imports keep that cycle from biting at import time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Collection, Dict, Optional, Tuple

from repro.telemetry.spans import Tracer

__all__ = ["span_direct_costs", "span_inclusive_costs", "inclusive_costs",
           "priced_breakdown", "breakdown_as_dict"]


def breakdown_as_dict(breakdown: Any) -> Dict[str, float]:
    """A :class:`~repro.costs.estimator.CostBreakdown` as a plain dict."""
    return {
        "s3": breakdown.s3,
        "dynamodb": breakdown.dynamodb,
        "simpledb": breakdown.simpledb,
        "ec2": breakdown.ec2,
        "sqs": breakdown.sqs,
        "egress": breakdown.egress,
        "total": breakdown.total,
    }


def span_direct_costs(tracer: Tracer, meter: Any,
                      book: Any) -> Dict[int, Any]:
    """Request cost per span id (key 0 collects untraced records)."""
    from repro.costs.estimator import CostBreakdown, price_record

    out: Dict[int, CostBreakdown] = {}
    for record in meter:
        priced = price_record(record, book)
        span_id = getattr(record, "span_id", 0)
        slot = out.get(span_id)
        if slot is None:
            out[span_id] = priced  # a fresh price: the slot may own it
        else:
            slot.accumulate(priced)
    return out


def span_inclusive_costs(tracer: Tracer, meter: Any, book: Any,
                         only: Optional[Collection[int]] = None,
                         ) -> Dict[int, Any]:
    """Request cost per span id including the span's whole subtree.

    Over a meter suffix (``meter.since(mark)``) every span opened after
    the mark gets its whole-meter slot bit for bit — it owns only later
    records, folded in the same order; slot 0 and the slots of spans
    opened before the mark are partial.  ``only`` keeps just those slots.
    """
    from repro.costs.estimator import price_records

    return inclusive_costs(tracer, price_records(meter, book), only)


def inclusive_costs(tracer: Tracer, priced: Any,
                    only: Optional[Collection[int]] = None,
                    ) -> Dict[int, Any]:
    """:func:`span_inclusive_costs` over ``(record, price)`` pairs.  The
    prices become slots of the result: fold them elsewhere *first*.
    With ``only`` just those slots are folded, each still the left fold
    of its records in meter order: bit for bit the whole tree's slot."""
    out: Dict[int, Any] = {}
    chains: Dict[int, Tuple[int, ...]] = {
        0: (0,) if only is None or 0 in only else ()}
    for record, price in priced:
        span_id = getattr(record, "span_id", 0)
        targets = chains.get(span_id)
        if targets is None:
            # Walk up to the first memoised span; memoise each span
            # passed, its chain keeping the ids in ``only``.
            walked, targets = [], ()
            for ancestor_id in tracer.ancestor_ids(span_id):
                if ancestor_id in chains:
                    targets = chains[ancestor_id]
                    break
                walked.append(ancestor_id)
            for ancestor_id in reversed(walked):
                if only is None or ancestor_id in only:
                    targets = (ancestor_id,) + targets
                chains[ancestor_id] = targets
            if not walked:  # unresolvable
                targets = chains[span_id] = chains[0]
        spare = price  # the record's first new slot keeps ``price``
        for target in targets:
            slot = out.get(target)
            if slot is not None:
                slot.accumulate(price)
            elif spare is None:
                out[target] = replace(price)  # never alias two slots
            else:
                out[target], spare = spare, None
    return out


def priced_breakdown(tracer: Tracer, meter: Any, book: Any,
                     metadata: Optional[Dict[str, Any]] = None,
                     ) -> Dict[str, Any]:
    """Machine-readable priced trace: one entry per finished span.

    The ``total`` field prices *all* meter records (traced or not), so
    it matches ``phase_cost(meter, book, "").total`` for the same run.
    """
    from repro.costs.estimator import CostBreakdown, price_record

    total = CostBreakdown()
    for record in meter:
        total.accumulate(price_record(record, book))
    direct = span_direct_costs(tracer, meter, book)
    inclusive = span_inclusive_costs(tracer, meter, book)
    zero = CostBreakdown()
    spans = []
    for span in sorted(tracer.spans, key=lambda s: s.span_id):
        entry: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "track": span.track,
            "start_s": span.start,
            "duration_s": span.duration_s,
            "direct": breakdown_as_dict(direct.get(span.span_id, zero)),
            "inclusive": breakdown_as_dict(
                inclusive.get(span.span_id, zero)),
        }
        for key in sorted(span.attributes):
            entry.setdefault(key, span.attributes[key])
        spans.append(entry)
    return {
        "metadata": dict(metadata or {}),
        "total": breakdown_as_dict(total),
        "untraced": breakdown_as_dict(direct.get(0, zero)),
        "spans": spans,
    }
