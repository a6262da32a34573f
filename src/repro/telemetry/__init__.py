"""Unified observability: tracing, metrics and cost attribution.

One hub per deployment ties the three legs together:

- :class:`~repro.telemetry.spans.Tracer` — hierarchical spans on the
  simulated clock (``frontend → sqs hop → query-processor → index
  lookup → twig join → s3 fetch``), deterministic and byte-stable
  across same-seed runs;
- :class:`~repro.telemetry.registry.MetricsRegistry` — labelled
  counters/gauges/histograms that the older scattered counters
  (monitoring, faults, retries, DLQ, degradation) mirror onto;
- cost attribution (:mod:`repro.telemetry.costing`) — every meter
  record carries the active span id, so traces can be priced per-span
  against the run's price book.

Wiring::

    cloud = CloudProvider(...)            # creates cloud.telemetry
    hub = cloud.telemetry
    with hub.span("workload", strategy="LUP"):
        ...                               # cloud calls nest below
    trace_json = chrome_trace_json(hub.tracer)
    priced = priced_breakdown(hub.tracer, cloud.meter, cloud.price_book)

The hub installs itself as ``env.telemetry`` so the simulation kernel
can announce process spawns (span inheritance) and cloud services can
open spans without any extra plumbing.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.telemetry.attribution import Attribution
from repro.telemetry.costing import (breakdown_as_dict, priced_breakdown,
                                     span_direct_costs, span_inclusive_costs)
from repro.telemetry.export import (chrome_trace_json, metrics_snapshot_json,
                                    render_tree)
from repro.telemetry.registry import (DEFAULT_BUCKETS, Counter, Gauge,
                                      Histogram, MetricsRegistry,
                                      counter_dict)
from repro.telemetry.spans import Span, Tracer, maybe_span

__all__ = [
    "TelemetryHub", "Tracer", "Span", "maybe_span",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS",
    "counter_dict",
    "Attribution",
    "chrome_trace_json", "render_tree", "metrics_snapshot_json",
    "span_direct_costs", "span_inclusive_costs", "priced_breakdown",
    "breakdown_as_dict",
]


class TelemetryHub:
    """One deployment's tracer + metrics registry, wired into its env.

    Creating a hub installs it as ``env.telemetry``; if the environment
    already carries a hub (two cloud providers sharing one simulation),
    reuse that instance instead of constructing a second one — see
    :meth:`for_env`.
    """

    def __init__(self, env: Any, meter: Optional[Any] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.env = env
        self.tracer = Tracer(env)
        self.registry = registry if registry is not None else MetricsRegistry()
        env.telemetry = self
        if meter is not None:
            self.bind_meter(meter)

    @classmethod
    def for_env(cls, env: Any, meter: Optional[Any] = None) -> "TelemetryHub":
        """The env's existing hub, or a new one installed on it."""
        hub = getattr(env, "telemetry", None)
        if isinstance(hub, cls):
            if meter is not None:
                hub.bind_meter(meter)
            return hub
        return cls(env, meter=meter)

    def bind_meter(self, meter: Any) -> None:
        """Have ``meter`` stamp span ids and mirror request counts."""
        meter.bind_telemetry(self)

    # -- kernel hook ---------------------------------------------------------

    def on_process_spawned(self, proc: Any) -> None:
        """Called by the environment for every new simulated process."""
        self.tracer.on_process_spawned(proc)

    # -- tracing facade ------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span below the current one (context manager)."""
        return self.tracer.span(name, **attributes)

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span of the active process, if any."""
        return self.tracer.current_span

    @property
    def current_span_id(self) -> int:
        """Id of the active span (0 when none)."""
        return self.tracer.current_span_id

    # -- metrics facade ------------------------------------------------------

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a registry counter."""
        return self.registry.counter(name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a registry gauge."""
        return self.registry.gauge(name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a registry histogram."""
        return self.registry.histogram(name, help_text, labelnames, buckets)
