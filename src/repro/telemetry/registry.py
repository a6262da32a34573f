"""The metrics registry: counters, gauges and histograms with labels.

One registry per deployment (created by the
:class:`~repro.telemetry.TelemetryHub`) is the single surface the
scattered ad-hoc counters of earlier PRs migrate onto: fault-injection
counts, retry/exhaustion counts, SQS redelivery and dead-letter counts,
DynamoDB throttle rejections, degradation downgrades, and the meter's
per-(service, operation) request volumes.

Shape follows the Prometheus client conventions — named metrics with a
fixed tuple of label names, child series per label-value combination —
restricted to what a deterministic simulation needs (no time windows,
no export protocol).  Label cardinality is capped per metric: a label
value drawn from an unbounded domain (URIs, span ids) is an
instrumentation bug and raises
:class:`~repro.errors.LabelCardinalityError` instead of silently
growing with the workload.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, LabelCardinalityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "counter_dict"]

#: Default histogram bucket upper bounds (simulated seconds): spans the
#: request-latency range of the calibrated performance profile.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
    float("inf"))

#: Default cap on distinct label sets per metric.
DEFAULT_MAX_SERIES = 1024


def _label_key(labelnames: Sequence[str],
               labels: Dict[str, str]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ConfigError(
            "metric labels {} do not match declared label names {}".format(
                sorted(labels), list(labelnames)))
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared machinery: name, labels, per-series storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], max_series: int) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._max_series = max_series
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _series_for(self, labels: Dict[str, str]) -> Any:
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self._max_series:
                raise LabelCardinalityError(
                    "metric {!r} exceeded {} label sets (offending "
                    "labels: {!r})".format(self.name, self._max_series,
                                           dict(zip(self.labelnames, key))))
            series = self._new_series()
            self._series[key] = series
        return series

    def _new_series(self) -> Any:
        raise NotImplementedError

    def series(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """All (label values, series) pairs, sorted by label values."""
        return sorted(self._series.items())

    def labels_of(self, key: Tuple[str, ...]) -> Dict[str, str]:
        """Label dict for one series key."""
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def _new_series(self) -> List[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be non-negative) to one series."""
        if amount < 0:
            raise ConfigError("counters only go up (amount={})".format(amount))
        self._series_for(labels)[0] += amount

    def cell(self, **labels: str) -> List[float]:
        """One series' one-slot list, created through the label checks:
        ``cell[0] += amount`` is :meth:`inc` bound to those labels."""
        return self._series_for(labels)

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 if never incremented)."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series[0] if series is not None else 0.0

    def total(self) -> float:
        """Sum over all series."""
        return sum(series[0] for series in self._series.values())


class Gauge(_Metric):
    """A value that can go up and down (queue depths, health states)."""

    kind = "gauge"

    def _new_series(self) -> List[float]:
        return [0.0]

    def set(self, value: float, **labels: str) -> None:
        """Set one series to ``value``."""
        self._series_for(labels)[0] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to one series."""
        self._series_for(labels)[0] += amount

    def value(self, **labels: str) -> float:
        """Current value of one series (0.0 if never set)."""
        key = _label_key(self.labelnames, labels)
        series = self._series.get(key)
        return series[0] if series is not None else 0.0


class _HistogramSeries:
    """Bucket counts plus sum/count for one label set."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.bucket_counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], max_series: int,
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help_text, labelnames, max_series)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise ConfigError("histogram needs at least one bucket")
        if list(bounds) != sorted(bounds):
            raise ConfigError("histogram buckets must be sorted")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.buckets = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.buckets)

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation."""
        series = self._series_for(labels)
        series.sum += value
        series.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[index] += 1
                # Non-cumulative storage; snapshots cumulate.
                break


class MetricsRegistry:
    """Named metrics, created on first use and snapshot on demand."""

    def __init__(self, max_series_per_metric: int = DEFAULT_MAX_SERIES) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._max_series = max_series_per_metric

    def _register(self, cls: type, name: str, help_text: str,
                  labelnames: Sequence[str], **kwargs: Any) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or \
                    existing.labelnames != tuple(labelnames):
                raise ConfigError(
                    "metric {!r} re-registered with a different type or "
                    "label names".format(name))
            return existing
        metric = cls(name, help_text, labelnames, self._max_series, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create a counter."""
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge."""
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a histogram."""
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under ``name``, if any."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable state of every metric (deterministic order).

        The returned structure is plain dicts/lists/numbers, directly
        JSON-serialisable — the exporter format of
        :func:`repro.telemetry.export.metrics_snapshot_json`.
        """
        out: Dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, Any] = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.labelnames),
                "series": [],
            }
            for key, series in metric.series():
                labels = metric.labels_of(key)
                if isinstance(metric, Histogram):
                    running = 0
                    cumulative = []
                    for count in series.bucket_counts:
                        running += count
                        cumulative.append(running)
                    entry["series"].append({
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if bound == float("inf") else bound,
                             count]
                            for bound, count in zip(metric.buckets,
                                                    cumulative)],
                        "sum": series.sum,
                        "count": series.count,
                    })
                else:
                    entry["series"].append(
                        {"labels": labels, "value": series[0]})
            out[name] = entry
        return out

    def render(self) -> str:
        """Human-readable one-line-per-series dump."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            for key, series in metric.series():
                labels = ",".join("{}={}".format(k, v) for k, v in
                                  zip(metric.labelnames, key))
                label_part = "{{{}}}".format(labels) if labels else ""
                if isinstance(metric, Histogram):
                    lines.append("{}{} count={} sum={:.6g}".format(
                        name, label_part, series.count, series.sum))
                else:
                    value = series[0]
                    rendered = ("{:g}".format(value)
                                if value == int(value) else
                                "{:.6g}".format(value))
                    lines.append("{}{} {}".format(name, label_part, rendered))
        return "\n".join(lines)


def counter_dict(registry: "MetricsRegistry", name: str) -> Dict[str, int]:
    """One counter's series as ``{"label1[:label2...]": int}``.

    Colon-joined label values keyed to integer counts, sorted by label
    values — the shape reports and monitors print.  Returns an
    empty dict when the counter was never incremented.
    """
    metric = registry.get(name)
    if not isinstance(metric, Counter):
        return {}
    return {":".join(key): int(series[0])
            for key, series in metric.series()}
