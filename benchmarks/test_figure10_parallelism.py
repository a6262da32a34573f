"""Regenerates Figure 10 (workload x16 on 1 vs 8 instances, L and XL).

Benchmark kernel: one single-query warehouse round trip on the LUP
index (submit -> process -> fetch results), the unit the figure's
makespans aggregate.
"""

from conftest import report

from repro.bench.experiments import figure10_parallelism as experiment
from repro.query.workload import workload_query


def test_figure10_parallelism(ctx, benchmark):
    result = experiment.run(ctx)
    experiment.check(result, ctx)
    report(result)

    index = ctx.index("LUP")
    query = workload_query("q1")

    def one_round_trip():
        return ctx.warehouse.run_query(query, index, worker_type="xl",
                                       tag="bench-kernel")

    execution = benchmark(one_round_trip)
    assert execution.result_rows >= 1
