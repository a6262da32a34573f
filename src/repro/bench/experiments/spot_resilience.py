"""Spot capacity and multi-region failover on one seeded burst.

The elasticity bench showed *when* to buy fleet capacity; this one
asks *what kind* and *where*.  Spot capacity is priced at roughly 30%
of on-demand but can be reclaimed on a short warning, and a whole
region can black out mid-run.  Every deployment here serves the exact
seeded burst of ``BENCH_serving.json`` (same arrival times, query mix
and strategy), so latency and dollars line up across both benches.

Arms:

- ``fixed-N`` — the elasticity bench's fixed on-demand fleets, re-run
  as the in-bench baseline;
- ``spot`` — autoscaled mixed fleet under a
  :class:`~repro.serving.policy.SpotPolicy` and a calm interruption
  regime: the cost headline;
- ``spot-storm`` — the same fleet under an interruption storm (every
  spot instance reclaimed within seconds): the resilience headline;
- ``outage`` — on-demand autoscaled fleet with a mid-run primary
  region blackout, bounded-staleness failover onto the replicated
  manifest, and failback: the availability headline.

Claims checked:

- every arm completes every offered query and its request dollars tie
  out exactly against the estimator (chaos loses nothing and
  double-bills nothing);
- the spot fleet undercuts every fixed on-demand fleet that matches
  its p95 — strictly cheaper at the same latency;
- the storm arm drains or reclaims every interruption, keeps serving,
  and its p95 stays within a small factor of the calm spot arm's;
- the outage arm fails over and back (at least once each) and answers
  every query across the blackout.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.reporting import ExperimentResult
from repro.faults import FaultPlan
from repro.serving import AutoscalePolicy, SpotPolicy
from repro.warehouse import Warehouse

ARTEFACT = "BENCH_spot.json"

#: Mean offered rate (queries per simulated second) outside the burst.
RATE_QPS = 2.0

#: Queries offered per deployment (several burst cycles' worth).
QUERIES = 120

#: Arrival-process seed — identical to the elasticity bench, so every
#: arm here sees the exact traffic of ``BENCH_serving.json``.
SEED = 20130318

#: Strategy whose index serves the queries.
STRATEGY = "LUI"

#: Fixed on-demand fleets re-run as the baseline.
FIXED_FLEETS = (1, 2, 4)

#: Autoscaled fleet bounds (identical to the elasticity bench).
MIN_WORKERS = 1
MAX_WORKERS = 4

#: Calm spot regime: interruptions per spot VM-hour.  At this rate a
#: handful of instances over a ~minute run sees roughly one reclaim.
CALM_RATE = 60.0

#: Storm regime: mean time-to-interruption of a few simulated seconds,
#: with the warning compressed to seconds so reclaims land mid-run.
STORM_RATE = 1200.0
STORM_WARNING_S = 2.0

#: Primary-region blackout: starts mid-burst (the replica converged
#: before traffic — the runtime's warm-up ship), lasts long enough
#: that queries *must* be answered off the replica.
OUTAGE_AFTER_S = 12.0
OUTAGE_DURATION_S = 15.0

#: Storm latency bound: the storm arm's p95 may not exceed this factor
#: of the calm spot arm's p95.
STORM_P95_FACTOR = 5.0


def _serve(ctx, label: str, config: dict,
           faults: Optional[FaultPlan] = None):
    """Deploy a fresh warehouse and serve the shared burst traffic.

    Chaos arms must deploy through :meth:`Warehouse.deploy` — only the
    deploy path wires ``faults`` into the cloud's fault plan.
    """
    deployment = dict(config)
    if faults is not None:
        deployment["faults"] = faults
    warehouse = Warehouse.deploy(deployment)
    warehouse.upload_corpus(ctx.corpus)
    index = warehouse.build_index(STRATEGY, loaders=4)
    traffic = {"arrival": "burst", "rate_qps": RATE_QPS,
               "queries": QUERIES, "seed": SEED}
    return warehouse.serve(traffic, index,
                           tag="spot-bench:{}".format(label))


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    autoscale = AutoscalePolicy(min_workers=MIN_WORKERS,
                                max_workers=MAX_WORKERS)
    reports = {}
    for workers in FIXED_FLEETS:
        label = "fixed-{}".format(workers)
        reports[label] = _serve(ctx, label, {"workers": workers})
    reports["spot"] = _serve(
        ctx, "spot", {"autoscale": autoscale, "spot": SpotPolicy()},
        faults=FaultPlan(seed=SEED).spot_interruptions(CALM_RATE))
    reports["spot-storm"] = _serve(
        ctx, "spot-storm", {"autoscale": autoscale, "spot": SpotPolicy()},
        faults=FaultPlan(seed=SEED).spot_interruptions(
            STORM_RATE, warning_s=STORM_WARNING_S))
    reports["outage"] = _serve(
        ctx, "outage", {"autoscale": autoscale,
                        "failover": True},
        faults=FaultPlan(seed=SEED).region_outage(OUTAGE_AFTER_S,
                                                  OUTAGE_DURATION_S))

    rows: List[List] = []
    series = {"p95_s": {}, "total_cost": {}, "spot_interruptions": {},
              "failovers": {}, "stale_reads": {}}
    for label, report in reports.items():
        rows.append([
            label,
            report.completed,
            round(report.p95_s, 4),
            round(report.spot_vm_hours, 6),
            report.spot_interruptions,
            "{}+{}".format(report.spot_drained, report.spot_reclaimed),
            "{}/{}".format(report.failovers, report.failbacks),
            report.stale_reads,
            round(report.total_cost, 9),
            "exact" if report.cost_tied_out else "MISMATCH",
        ])
        series["p95_s"][label] = report.p95_s
        series["total_cost"][label] = report.total_cost
        series["spot_interruptions"][label] = report.spot_interruptions
        series["failovers"][label] = report.failovers
        series["stale_reads"][label] = report.stale_reads
    return ExperimentResult(
        experiment_id="BENCH spot",
        title="Spot fleets, interruption storms and region failover on "
              "the elasticity bench's seeded burst ({} queries at {} "
              "qps mean)".format(QUERIES, RATE_QPS),
        headers=["arm", "completed", "p95 s", "spot vm-h", "interrupts",
                 "drain+reclaim", "failover/back", "stale reads",
                 "total $", "tie-out"],
        rows=rows, series=series,
        notes=["identical seeded arrivals per arm (the BENCH_serving "
               "burst); chaos loses no query and double-bills none; "
               "the spot fleet must undercut every fixed fleet "
               "matching its p95"])


def check(result: ExperimentResult, ctx: Optional[object] = None) -> None:
    """Assert the resilience claims on the regenerated artefact."""
    by_arm = result.row_map()
    assert set(by_arm) == {"fixed-{}".format(n) for n in FIXED_FLEETS} \
        | {"spot", "spot-storm", "outage"}
    # Chaos or not: every query answers and every dollar ties out.
    for label, row in by_arm.items():
        assert row[9] == "exact", \
            "{}: request dollars must tie out exactly".format(label)
        assert row[1] == QUERIES, \
            "{}: every offered query must complete".format(label)
    # The calm spot fleet actually rode the spot market...
    spot = by_arm["spot"]
    assert spot[3] > 0, "spot arm must accrue spot VM-hours"
    # ...and beats every fixed on-demand fleet at its latency.
    spot_p95, spot_cost = spot[2], spot[8]
    comparable = [row for label, row in by_arm.items()
                  if label.startswith("fixed-") and row[2] <= spot_p95]
    assert comparable, \
        "at least one fixed fleet must match the spot p95"
    for row in comparable:
        assert spot_cost < row[8], \
            "{} matches the spot p95 but costs no more " \
            "({} vs {})".format(row[0], row[8], spot_cost)
    # The storm fired, every interruption resolved (drain or reclaim),
    # and latency stayed bounded.
    storm = by_arm["spot-storm"]
    assert storm[4] > 0, "the storm must interrupt at least one instance"
    drained, reclaimed = (int(part) for part in storm[5].split("+"))
    assert drained + reclaimed == storm[4], \
        "every interruption must resolve as a drain or a reclaim"
    assert storm[2] <= STORM_P95_FACTOR * spot_p95, \
        "storm p95 {} exceeds {}x the calm spot p95 {}".format(
            storm[2], STORM_P95_FACTOR, spot_p95)
    # The outage arm failed over, served off the replica, failed back.
    outage = by_arm["outage"]
    failovers, failbacks = (int(part) for part in outage[6].split("/"))
    assert failovers >= 1, "the blackout must trigger a failover"
    assert failovers == failbacks, \
        "every failover must fail back once the primary returns"
    assert outage[7] > 0, "failover must serve reads off the replica"
