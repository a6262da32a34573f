"""Serving elasticity: autoscaled fleet vs. fixed fleets on one burst.

The paper's cost model (§7) prices a deployment as requests plus
VM-hours.  A *closed* workload fixes the fleet shape per run; an *open*
workload makes fleet shape a policy decision: a fixed fleet sized for
the burst pays for idle VMs between bursts, one sized for the valley
queues up during bursts.  The autoscaler rides the queue-depth signal
instead — growing into the burst, draining back to the floor after.

Every deployment serves the *same* seeded burst traffic (identical
arrival times and query mix), so latency and dollars are directly
comparable.  Claims checked:

- every run's request dollars tie out exactly against the estimator
  (the serving span's priced subtree equals the tag-filtered total);
- the autoscaled fleet actually flexes (peak > floor, ≥1 scale-out);
- Pareto: every fixed fleet that matches the autoscaled p95 (equal or
  better) costs strictly more — elasticity buys the burst-sized
  latency without the burst-sized bill.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.reporting import ExperimentResult
from repro.serving import AutoscalePolicy
from repro.warehouse import Warehouse

ARTEFACT = "BENCH_serving.json"

#: Mean offered rate (queries per simulated second) outside the burst.
RATE_QPS = 2.0

#: Queries offered per deployment (several burst cycles' worth).
QUERIES = 120

#: Arrival-process seed: every deployment sees identical traffic.
SEED = 20130318

#: Strategy whose index serves the queries.
STRATEGY = "LUI"

#: Fixed fleet sizes to compare against.
FIXED_FLEETS = (1, 2, 4)

#: Autoscaled fleet bounds (floor matches the smallest fixed fleet,
#: ceiling the largest).
MIN_WORKERS = 1
MAX_WORKERS = 4


def _serve(ctx, label: str, deployment: dict):
    """Deploy a fresh warehouse and serve the shared burst traffic."""
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(ctx.corpus)
    index = warehouse.build_index(STRATEGY, loaders=4)
    traffic = {"arrival": "burst", "rate_qps": RATE_QPS,
               "queries": QUERIES, "seed": SEED}
    return warehouse.serve(traffic, index,
                           tag="serve-bench:{}".format(label))


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    reports = {}
    for workers in FIXED_FLEETS:
        label = "fixed-{}".format(workers)
        reports[label] = _serve(ctx, label, {"workers": workers})
    autoscale = AutoscalePolicy(min_workers=MIN_WORKERS,
                                max_workers=MAX_WORKERS)
    reports["autoscaled"] = _serve(ctx, "autoscaled",
                                   {"autoscale": autoscale})

    rows: List[List] = []
    series = {"p95_s": {}, "total_cost": {}}
    for label, report in reports.items():
        rows.append([
            label,
            report.peak_workers,
            report.completed,
            round(report.p50_s, 4),
            round(report.p95_s, 4),
            round(report.ec2_cost, 9),
            round(report.request_cost, 9),
            round(report.total_cost, 9),
            "exact" if report.cost_tied_out else "MISMATCH",
        ])
        series["p95_s"][label] = report.p95_s
        series["total_cost"][label] = report.total_cost
    return ExperimentResult(
        experiment_id="BENCH serving",
        title="Autoscaled vs. fixed query fleets on seeded burst traffic "
              "({} queries at {} qps mean)".format(QUERIES, RATE_QPS),
        headers=["fleet", "peak", "completed", "p50 s", "p95 s",
                 "ec2 $", "requests $", "total $", "tie-out"],
        rows=rows, series=series,
        notes=["identical seeded arrivals per deployment; the "
               "autoscaled fleet must undercut every fixed fleet that "
               "matches its p95"])


def check(result: ExperimentResult, ctx: Optional[object] = None) -> None:
    """Assert the elasticity claims on the regenerated artefact."""
    by_fleet = result.row_map()
    assert set(by_fleet) == {"fixed-{}".format(n) for n in FIXED_FLEETS} \
        | {"autoscaled"}
    # Dollar attribution ties out exactly on every deployment.
    for label, row in by_fleet.items():
        assert row[8] == "exact", \
            "{}: request dollars must tie out exactly".format(label)
        assert row[2] == QUERIES, \
            "{}: every offered query must complete".format(label)
    auto = by_fleet["autoscaled"]
    # The autoscaler actually flexed the fleet.
    assert MIN_WORKERS < auto[1] <= MAX_WORKERS, \
        "autoscaled fleet must grow beyond its floor"
    # Pareto: every fixed fleet at the autoscaled latency (or better)
    # pays strictly more.
    auto_p95, auto_cost = auto[4], auto[7]
    comparable = [row for label, row in by_fleet.items()
                  if label != "autoscaled" and row[4] <= auto_p95]
    assert comparable, \
        "at least one fixed fleet must match the autoscaled p95"
    for row in comparable:
        assert auto_cost < row[7], \
            "{} matches the autoscaled p95 but costs no more " \
            "({} vs {})".format(row[0], row[7], auto_cost)
