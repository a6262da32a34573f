"""Trace and metrics exporters.

Three formats, all deterministic byte-for-byte given the same span tree
and registry state (JSON is emitted with sorted keys and fixed
separators; ordering everywhere is by span id / metric name, never by
dict insertion or hash order):

- :func:`chrome_trace_json`: Chrome trace-event JSON, loadable in
  Perfetto or ``chrome://tracing``.  Each finished span becomes a
  complete (``"ph": "X"``) event; simulated seconds map to trace
  microseconds; each simulated process gets its own named thread row.
- :func:`render_tree`: console summary of the span tree, with
  same-named sibling groups aggregated so a thousand S3 gets print as
  one line.
- :func:`metrics_snapshot_json`: the registry's
  :meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` as JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Span, Tracer

#: How deep :func:`render_tree` descends before it stops indenting.
MAX_TREE_DEPTH = 12

__all__ = ["chrome_trace_json", "render_tree", "metrics_snapshot_json"]


def _span_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {"span_id": span.span_id}
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.error:
        args["error"] = True
    for key in sorted(span.attributes):
        args[key] = span.attributes[key]
    return args


def chrome_trace_json(tracer: Tracer,
                      metadata: Optional[Dict[str, Any]] = None) -> str:
    """Export finished spans as Chrome trace-event JSON.

    ``metadata`` (seed, strategy, corpus size, ...) lands in the trace's
    ``otherData`` section, visible in the Perfetto info panel.
    """
    spans = sorted(tracer.spans, key=lambda s: s.span_id)
    # Thread ids per track, in order of first appearance by span id, so
    # the mapping is a pure function of the span tree.
    tids: Dict[str, int] = {}
    for span in spans:
        if span.track not in tids:
            tids[span.track] = len(tids) + 1
    events: List[Dict[str, Any]] = []
    for track, tid in tids.items():
        events.append({
            "args": {"name": track},
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
        })
    for span in spans:
        events.append({
            "args": _span_args(span),
            "cat": "sim",
            "dur": round(span.duration_s * 1e6, 3),
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": tids[span.track],
            "ts": round(span.start * 1e6, 3),
        })
    doc: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
        "traceEvents": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _format_cost(value: float) -> str:
    return "${:.6f}".format(value)


def render_tree(tracer: Tracer,
                costs: Optional[Dict[int, Any]] = None) -> str:
    """Render the span tree as indented console text.

    Same-named siblings collapse into one aggregated line (count and
    summed duration); with ``costs`` (span id -> object with a ``total``
    attribute, e.g. the inclusive rollup from
    :func:`repro.telemetry.costing.span_inclusive_costs`) each line also
    shows what the subtree cost.
    """
    children = tracer.children_index()
    lines: List[str] = []

    def group_cost(group: List[Span]) -> Optional[float]:
        if costs is None:
            return None
        return sum(getattr(costs.get(span.span_id), "total", 0.0) or 0.0
                   for span in group)

    def describe(group: List[Span]) -> str:
        total_s = sum(span.duration_s for span in group)
        label = group[0].name
        if len(group) > 1:
            label += " ×{}".format(len(group))
        elif group[0].attributes:
            details = ",".join(
                "{}={}".format(k, group[0].attributes[k])
                for k in sorted(group[0].attributes))
            label += " [{}]".format(details)
        if any(span.error for span in group):
            label += " !error"
        line = "{}  {:.3f}s".format(label, total_s)
        cost = group_cost(group)
        if cost is not None:
            line += "  " + _format_cost(cost)
        return line

    def walk(group: List[Span], depth: int) -> None:
        lines.append("  " * depth + describe(group))
        if depth >= MAX_TREE_DEPTH:
            return
        merged: List[Span] = []
        for span in group:
            merged.extend(children.get(span.span_id, []))
        by_name: Dict[str, List[Span]] = {}
        for child in merged:
            by_name.setdefault(child.name, []).append(child)
        for name in sorted(by_name):
            walk(by_name[name], depth + 1)

    roots = tracer.roots()
    by_name: Dict[str, List[Span]] = {}
    for root in roots:
        by_name.setdefault(root.name, []).append(root)
    for name in sorted(by_name):
        walk(by_name[name], 0)
    return "\n".join(lines)


def metrics_snapshot_json(registry: MetricsRegistry) -> str:
    """Export the registry snapshot as deterministic JSON."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2) + "\n"
