"""Structured attribution for metered cloud operations.

Before this module, cost slicing relied on free-form
:attr:`~repro.sim.metering.MeterRecord.tag` string conventions —
``"query:q3"``, ``"index-build:LUP:1"``, ``"scrub:NAME:e1"`` — parsed
ad hoc by prefix matching in :mod:`repro.costs`.  :class:`Attribution`
names the parts explicitly:

``activity``
    What kind of work was billed: ``"query"``, ``"index-build"``,
    ``"workload"``, ``"scrub"``, ``"retry"``, ...
``query``
    The query id when the activity is per-query (``"q3"``).
``detail``
    Remaining activity-specific qualifier (strategy/scale for builds,
    index name/epoch for scrubs, service name for retries).
``span_id``
    The telemetry span that was active when the operation ran (0 when
    untraced), linking billing records into the trace tree.

The legacy string form stays available as :attr:`Attribution.tag` and
:meth:`Attribution.from_tag` converts old tags forward, so existing
meters, phase records and tests keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Attribution"]

#: Activities whose tag qualifier names a query rather than a detail.
_QUERY_ACTIVITIES = frozenset({"query"})


@dataclass(frozen=True)
class Attribution:
    """Structured replacement for the free-form meter tag."""

    activity: str = ""
    query: str = ""
    detail: str = ""
    span_id: int = 0

    @property
    def tag(self) -> str:
        """The legacy colon-joined tag string for this attribution."""
        parts = [self.activity]
        if self.query:
            parts.append(self.query)
        if self.detail:
            parts.append(self.detail)
        return ":".join(p for p in parts if p) if self.activity else ""

    def matches_activity(self, activity: str) -> bool:
        """Whether this attribution belongs to ``activity``."""
        return self.activity == activity

    def __str__(self) -> str:
        return self.tag

    @classmethod
    def from_tag(cls, tag: str, span_id: int = 0) -> "Attribution":
        """Parse a legacy tag string into an :class:`Attribution`.

        The first colon-separated component is the activity; the
        remainder is the query id for per-query activities and the
        detail otherwise::

            Attribution.from_tag("query:q3")
                -> Attribution("query", query="q3")
            Attribution.from_tag("index-build:LUP:1")
                -> Attribution("index-build", detail="LUP:1")
            Attribution.from_tag("") -> Attribution()
        """
        if not tag:
            return cls(span_id=span_id)
        activity, _, rest = tag.partition(":")
        if activity in _QUERY_ACTIVITIES:
            return cls(activity=activity, query=rest, span_id=span_id)
        return cls(activity=activity, detail=rest, span_id=span_id)
