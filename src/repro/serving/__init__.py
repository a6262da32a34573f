"""Elastic serving runtime over the simulated warehouse.

Where :meth:`Warehouse.run_workload` replays a *closed* workload — K
repeats of the paper's ten queries against a fixed fleet — this package
serves an *open* one: a seeded :class:`TrafficGenerator` emits query
arrivals (Poisson, burst or diurnal) against the front end regardless
of whether the fleet is keeping up, an :class:`Autoscaler` grows and
shrinks the query-processor fleet against queue depth and age, and an
:class:`AdmissionController` sheds or degrades arrivals when the
backlog exceeds its bound.  The outcome is a :class:`ServingReport`
with latency percentiles, throughput, the fleet-size timeline, and an
exact dollar tie-out between span attribution and the cost estimator.

Everything is deterministic: one seed fixes the arrival process, the
query mix, and therefore the whole report byte-for-byte.
"""

from repro.serving.admission import AdmissionController
from repro.serving.autoscaler import (MARKET_ON_DEMAND, MARKET_SPOT,
                                      Autoscaler, Fleet)
from repro.serving.failover import (FailoverController, RegionSwitch)
from repro.serving.policy import (AdmissionPolicy, AutoscalePolicy,
                                  SpotPolicy)
from repro.serving.report import ServingReport, percentile
from repro.serving.spot import InterruptionNotice, SpotMarket
from repro.serving.traffic import TrafficGenerator, TrafficProfile

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Autoscaler",
    "AutoscalePolicy",
    "FailoverController",
    "Fleet",
    "InterruptionNotice",
    "MARKET_ON_DEMAND",
    "MARKET_SPOT",
    "RegionSwitch",
    "ServingReport",
    "ServingRuntime",
    "SpotMarket",
    "SpotPolicy",
    "TrafficGenerator",
    "TrafficProfile",
    "percentile",
]


def __getattr__(name: str):
    # ServingRuntime pulls in the warehouse worker modules; importing it
    # lazily keeps `repro.serving.policy` importable from the deployment
    # config without a warehouse <-> serving import cycle.
    if name == "ServingRuntime":
        from repro.serving.runtime import ServingRuntime
        return ServingRuntime
    raise AttributeError("module {!r} has no attribute {!r}".format(
        __name__, name))
