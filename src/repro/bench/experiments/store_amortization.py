"""Store-layer amortisation: K workload repeats, cache on vs. off.

Extends the paper's amortisation view (Figure 13): there, an *index*
amortises its build cost because every workload run bills fewer
requests than the no-index baseline.  The storage-access layer adds a
second amortisation axis — with the epoch-aware read cache enabled,
runs 2..K of the *same* workload stop re-billing identical index gets,
so the per-run request cost converges down after the first run while
the uncached deployment pays the same bill every time.

Claims checked:

- run 1 never bills more with the cache than without (queries within
  one run already share repeated keys, so even a cold cache can save);
- every later run bills strictly fewer DynamoDB gets with the cache on
  than off, and strictly fewer than its own first run;
- uncached runs bill identically to each other (the baseline is flat);
- per-span cost attribution ties out: the workload span's priced
  subtree equals the tag-filtered estimator total for every run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.reporting import ExperimentResult
from repro.costs.estimator import phase_cost
from repro.warehouse import Warehouse

ARTEFACT = "BENCH_store.json"

#: Workload repetitions per deployment (the "K" of the K-repeat bench).
RUNS = 4

#: Cache byte budget of the cache-on deployment — ample for the
#: workload's distinct index reads at bench scale.
CACHE_BYTES = 4 * 1024 * 1024

#: Strategy whose index the workload runs against.
STRATEGY = "LUP"


def _run_deployment(ctx, cache_bytes: int) -> List[Dict[str, float]]:
    """Build one deployment and repeat the workload; per-run numbers."""
    warehouse = Warehouse(deployment={"cache_bytes": cache_bytes})
    warehouse.upload_corpus(ctx.corpus)
    index = warehouse.build_index(STRATEGY, loaders=4)
    meter = warehouse.cloud.meter
    book = warehouse.cloud.price_book
    rows = []
    for run in range(1, RUNS + 1):
        tag = "store-bench:run{}".format(run)
        report = warehouse.run_workload(
            ctx.queries, index,
            workers=1, worker_type="l", tag=tag)
        estimator_total = phase_cost(meter, book, tag).total
        span_total = report.cost.total if report.cost is not None else 0.0
        rows.append({
            "run": run,
            "billed_gets": meter.request_count("dynamodb", "get", tag=tag),
            "cache_hits": sum(e.store_cache_hits
                              for e in report.executions),
            "run_cost": estimator_total,
            "span_cost": span_total,
        })
    return rows


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    modes = {"cache-off": _run_deployment(ctx, 0),
             "cache-on": _run_deployment(ctx, CACHE_BYTES)}
    rows = []
    series: Dict[str, Dict[int, float]] = {}
    for mode in ("cache-off", "cache-on"):
        series[mode] = {}
        for entry in modes[mode]:
            rows.append([
                mode,
                int(entry["run"]),
                int(entry["billed_gets"]),
                int(entry["cache_hits"]),
                round(entry["run_cost"], 9),
                round(entry["span_cost"], 9),
            ])
            series[mode][int(entry["run"])] = int(entry["billed_gets"])
    return ExperimentResult(
        experiment_id="BENCH store",
        title="Store-layer cache amortisation over {} workload runs"
              .format(RUNS),
        headers=["mode", "run", "billed gets", "cache hits",
                 "run $", "span $"],
        rows=rows, series=series,
        notes=["cache-on runs 2..{} serve repeated index reads from the "
               "epoch-aware cache and bill strictly fewer DynamoDB gets"
               .format(RUNS)])


def _mode_rows(result: ExperimentResult, mode: str) -> List[List]:
    return [row for row in result.rows if row[0] == mode]


def check(result: ExperimentResult, ctx: Optional[object] = None) -> None:
    """Assert the store layer's amortisation claims on the result."""
    off = _mode_rows(result, "cache-off")
    on = _mode_rows(result, "cache-on")
    assert len(off) == len(on) == RUNS
    # A cold cache never bills more; within-run repeats may already hit.
    assert on[0][2] <= off[0][2], \
        "cold-cache run 1 must not bill more than the uncached run"
    assert on[0][2] + on[0][3] == off[0][2], \
        "run 1 hits + billed gets must cover the uncached read count"
    # The uncached baseline is flat.
    for row in off[1:]:
        assert row[2] == off[0][2], \
            "uncached runs must bill identically (run {})".format(row[1])
        assert row[3] == 0
    # Cached runs 2..K bill strictly fewer gets and strictly less money.
    for row in on[1:]:
        assert row[2] < off[0][2], \
            "cached run {} must bill fewer gets than uncached".format(
                row[1])
        assert row[2] < on[0][2], \
            "cached run {} must bill fewer gets than its run 1".format(
                row[1])
        assert row[3] > 0, "warm runs must record cache hits"
        assert row[4] < on[0][4], \
            "cached run {} must cost less than run 1".format(row[1])
    # Per-span cost attribution ties out to the estimator total.
    for row in off + on:
        assert abs(row[4] - row[5]) < 1e-9, \
            "span-attributed cost must equal the estimator total " \
            "(mode {}, run {}: {} vs {})".format(row[0], row[1],
                                                 row[5], row[4])
