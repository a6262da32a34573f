"""Micro-kernels behind the experiments that no ``benchmarks/e2e``
workload runs, timed with pytest-benchmark.

Everything else an experiment does is timed as a whole by
``test_experiments.py`` and through the whole stack by
``benchmarks/e2e/run.py``.
"""

from repro.bench.experiments import figure13_amortization
from repro.costs.amortization import AmortizationStudy, amortization_series
from repro.costs.estimator import workload_cost_breakdown
from repro.costs.whatif import price_sensitivity
from repro.indexing.mapper import _chunk_ids_text
from repro.xmldb.ids import NodeID


def test_simpledb_id_chunking(benchmark):
    """Table 7: SimpleDB's textual ID chunking, the mapping difference
    §8.4 credits for much of the gap to DynamoDB's one binary encode."""
    ids = [NodeID(i * 3 + 1, i * 3 + 2, (i % 7) + 1) for i in range(500)]
    chunks = benchmark(_chunk_ids_text, ids)
    assert len(chunks) >= 2


def test_cost_breakdown(ctx, benchmark):
    """Figure 12: the workload's cost decomposed per service."""
    executions = ctx.workload_report("LUI", "xl").executions
    breakdown = benchmark(workload_cost_breakdown, executions,
                          ctx.dataset_metrics,
                          ctx.warehouse.cloud.price_book)
    assert breakdown.ec2 > 0


def test_amortization_series(ctx, benchmark):
    """Figure 13: one strategy's amortization series."""
    row = figure13_amortization.run(ctx).row_map()["LU"]
    study = AmortizationStudy(strategy_name="LU",
                              build_cost=float(row[1]),
                              workload_cost_no_index=float(row[2]),
                              workload_cost_indexed=float(row[3]))
    series = benchmark(amortization_series, study, 100)
    assert series[0][1] < 0 < series[-1][1]


def test_price_sensitivity(ctx, benchmark):
    """Figure 15: one full price-sensitivity sweep over the measured
    workload."""
    executions = ctx.workload_report("LUP", "xl").executions
    points = benchmark(price_sensitivity, executions, ctx.dataset_metrics,
                       ctx.warehouse.cloud.price_book)
    assert points
