"""Table 7 — indexing comparison with the SimpleDB-backed system of [8].

Per strategy: indexing speed in ms per MB of XML data and indexing cost
in $ per MB, for the [8] baseline (SimpleDB index store) and this work
(DynamoDB); plus the monthly storage cost per GB of XML for both index
stores and for the data itself.

Paper claims checked: "the present work speeds up indexing by one to
two orders of magnitude, all the while indexing costs are reduced" —
DynamoDB wins on speed and cost for every strategy, helped by binary ID
encoding and higher write throughput; the SimpleDB index storage price
($0.275/GB-month) is lower than DynamoDB's ($1.14) yet the overall
economics still favour DynamoDB.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.costs.estimator import build_phase_cost
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "vs the SimpleDB system [8]: indexing 1-2 orders of magnitude "
    "faster and 2-3 orders cheaper with DynamoDB")
OUR_CLAIM = (
    "DynamoDB faster (>= 3x at our calibration) and cheaper for every "
    "strategy; SimpleDB storage rent lower (0.275 vs 1.14 $/GB-month) "
    "yet overall economics favour DynamoDB")


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    book = ctx.warehouse.cloud.price_book
    data_mb = ctx.corpus.total_mb
    rows = []
    for name in ALL_STRATEGY_NAMES:
        cells = [name]
        speeds = {}
        costs = {}
        for backend in ("simpledb", "dynamodb"):
            built = ctx.index(name, backend=backend)
            speed_ms_mb = built.report.total_s * 1000.0 / data_mb
            cost_mb = build_phase_cost(ctx.warehouse, built,
                                       book).total / data_mb
            speeds[backend] = speed_ms_mb
            costs[backend] = cost_mb
        cells.extend([round(speeds["simpledb"]), round(speeds["dynamodb"]),
                      round(costs["simpledb"], 7),
                      round(costs["dynamodb"], 7)])
        rows.append(cells)
    monthly = [
        ["index storage $/GB-month [8]", book.simpledb_month_gb],
        ["index storage $/GB-month (this work)", book.idx_month_gb],
        ["data storage $/GB-month", book.st_month_gb],
    ]
    return ExperimentResult(
        experiment_id="Table 7",
        title="Indexing comparison: SimpleDB ([8]) vs DynamoDB (this work)",
        headers=["strategy", "speed ms/MB [8]", "speed ms/MB (ours)",
                 "cost $/MB [8]", "cost $/MB (ours)"],
        rows=rows,
        notes=["{}: {}".format(label, value) for label, value in monthly]
        + ["paper speeds (ms/MB): LU 7491->196, LUP 8335->398, "
           "LUI 12447->302, 2LUPI 11265->699"])


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    for row in result.rows:
        name, sdb_speed, ddb_speed, sdb_cost, ddb_cost = row
        assert ddb_speed < sdb_speed, \
            "{}: DynamoDB indexing should be faster than SimpleDB".format(name)
        assert sdb_speed / ddb_speed >= 3, \
            "{}: expected a large DynamoDB speedup, got {:.1f}x".format(
                name, sdb_speed / ddb_speed)
        assert ddb_cost < sdb_cost, \
            "{}: DynamoDB indexing should be cheaper".format(name)
    # The storage price relation printed in Table 7.
    book = ctx.warehouse.cloud.price_book
    assert book.simpledb_month_gb < book.idx_month_gb, \
        "SimpleDB storage is the cheaper rent (0.275 vs 1.14 in Table 7)"
