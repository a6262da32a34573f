"""Operation metering for after-the-fact cost accounting.

Every simulated cloud API call records a :class:`MeterRecord`.  The cost
model (:mod:`repro.costs`) prices a run by folding over these records —
the same way the AWS bill in the paper is the fold of Amazon's request
logs over its price book.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from repro.telemetry.attribution import Attribution


class MeterRecord(NamedTuple):
    """One metered cloud operation: a flat immutable record, built once.

    Attributes
    ----------
    time:
        Simulated time at which the operation completed.
    service:
        Service name, e.g. ``"s3"``, ``"dynamodb"``, ``"sqs"``, ``"ec2"``.
    operation:
        Operation name, e.g. ``"get"``, ``"put"``, ``"send_message"``.
    count:
        Number of billable requests this record represents (batch APIs
        record the batch as a single billable request when the provider
        bills it that way).
    bytes_in:
        Payload bytes transferred into the service.
    bytes_out:
        Payload bytes transferred out of the service.
    tag:
        Legacy free-form attribution tag, used to slice costs per
        activity (e.g. ``"index-build"`` vs ``"query:q3"``).  Prefer
        the structured :attr:`attribution` view.
    span_id:
        Id of the telemetry span active when the operation ran (0 when
        the run is untraced), letting :mod:`repro.telemetry.costing`
        price traces per span.
    """

    time: float
    service: str
    operation: str
    count: int = 1
    bytes_in: int = 0
    bytes_out: int = 0
    tag: str = ""
    span_id: int = 0

    @property
    def attribution(self) -> Attribution:
        """The record's tag parsed into a structured attribution."""
        return Attribution.from_tag(self.tag, span_id=self.span_id)


@dataclass
class MeterTotals:
    """Aggregated view of a set of meter records."""

    requests: Counter = field(default_factory=Counter)
    bytes_in: Counter = field(default_factory=Counter)
    bytes_out: Counter = field(default_factory=Counter)

    def key(self, service: str, operation: str) -> Tuple[str, str]:
        """The ``(service, operation)`` counter key."""
        return (service, operation)


class Meter:
    """Accumulates :class:`MeterRecord` entries for one simulated run.

    A meter also carries a *tag stack*: warehouse code pushes an activity
    tag (``with meter.tagged("query:q3"): ...``) and every record emitted
    below inherits it, enabling per-query cost attribution without
    threading tags through every call site.
    """

    def __init__(self) -> None:
        self._records: List[MeterRecord] = []
        self._tag_stack: List[str] = []
        self._telemetry: Optional[Any] = None
        self._requests_total: Optional[Any] = None

    # -- recording ---------------------------------------------------------

    def bind_telemetry(self, hub: Any) -> None:
        """Attach a :class:`~repro.telemetry.TelemetryHub`.

        A bound meter stamps each record with the active span id and
        mirrors request counts onto the hub's ``cloud_requests_total``
        registry counter.  The record list itself is unchanged (same
        length, same order), so metering-based determinism checks hold
        with or without telemetry.
        """
        self._telemetry = hub
        self._requests_total = hub.counter(
            "cloud_requests_total",
            "Billable cloud API requests by service and operation.",
            ("service", "operation"))

    def record(self, time: float, service: str, operation: str,
               count: int = 1, bytes_in: int = 0, bytes_out: int = 0,
               tag: Optional[str] = None) -> MeterRecord:
        """Append and return a new record, inheriting the current tag."""
        if tag is None:
            tag = self._tag_stack[-1] if self._tag_stack else ""
        span_id = 0
        if self._telemetry is not None:
            span_id = self._telemetry.current_span_id
        rec = MeterRecord(time, service, operation, count, bytes_in,
                          bytes_out, tag, span_id)
        self._records.append(rec)
        if self._requests_total is not None:
            self._requests_total.inc(count, service=service,
                                     operation=operation)
        return rec

    def tagged(self, tag: Any) -> "_TagScope":
        """Context manager that tags all records emitted inside it.

        Accepts either a legacy tag string or an
        :class:`~repro.telemetry.Attribution` (rendered to its tag).
        """
        if isinstance(tag, Attribution):
            tag = tag.tag
        return _TagScope(self, tag)

    @property
    def current_tag(self) -> str:
        """The innermost active attribution tag ("" if none)."""
        return self._tag_stack[-1] if self._tag_stack else ""

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeterRecord]:
        return iter(self._records)

    def mark(self) -> int:
        """The current end of the record list (until :meth:`clear`)."""
        return len(self._records)

    def since(self, mark: int) -> List[MeterRecord]:
        """The records appended since ``mark`` was taken, oldest first."""
        return self._records[mark:]

    def records(self, service: Optional[str] = None,
                operation: Optional[str] = None,
                tag: Optional[str] = None,
                tag_prefix: Optional[str] = None,
                activity: Optional[str] = None) -> List[MeterRecord]:
        """Filter records by service, operation, tag and/or activity.

        ``activity`` matches the structured attribution
        (``activity="query"`` selects every per-query record regardless
        of which query), where ``tag``/``tag_prefix`` match the legacy
        string form.
        """
        out = []
        for rec in self._records:
            if service is not None and rec.service != service:
                continue
            if operation is not None and rec.operation != operation:
                continue
            if tag is not None and rec.tag != tag:
                continue
            if tag_prefix is not None and not rec.tag.startswith(tag_prefix):
                continue
            if activity is not None and \
                    rec.attribution.activity != activity:
                continue
            out.append(rec)
        return out

    def request_count(self, service: str,
                      operation: Optional[str] = None,
                      tag: Optional[str] = None) -> int:
        """Total billable requests matching the filter."""
        return sum(r.count for r in self.records(service, operation, tag))

    def bytes_out_total(self, service: Optional[str] = None,
                        tag: Optional[str] = None) -> int:
        """Total bytes transferred out of matching services."""
        return sum(r.bytes_out for r in self.records(service, tag=tag))

    def bytes_in_total(self, service: Optional[str] = None,
                       tag: Optional[str] = None) -> int:
        """Total bytes transferred into matching services."""
        return sum(r.bytes_in for r in self.records(service, tag=tag))

    def totals(self) -> MeterTotals:
        """Aggregate counters keyed by ``(service, operation)``."""
        totals = MeterTotals()
        for rec in self._records:
            key = (rec.service, rec.operation)
            totals.requests[key] += rec.count
            totals.bytes_in[key] += rec.bytes_in
            totals.bytes_out[key] += rec.bytes_out
        return totals

    def by_tag(self) -> Dict[str, List[MeterRecord]]:
        """Group records by their attribution tag."""
        grouped: Dict[str, List[MeterRecord]] = defaultdict(list)
        for rec in self._records:
            grouped[rec.tag].append(rec)
        return dict(grouped)

    def clear(self) -> None:
        """Drop all records (tag stack is preserved)."""
        self._records.clear()

    def extend(self, records: Iterable[MeterRecord]) -> None:
        """Append pre-built records (used when merging sub-runs)."""
        self._records.extend(records)


class _TagScope:
    """Context manager pushing/popping a tag on a meter's tag stack."""

    def __init__(self, meter: Meter, tag: str) -> None:
        self._meter = meter
        self._tag = tag

    def __enter__(self) -> Meter:
        self._meter._tag_stack.append(self._tag)
        return self._meter

    def __exit__(self, *_exc_info: object) -> None:
        self._meter._tag_stack.pop()
