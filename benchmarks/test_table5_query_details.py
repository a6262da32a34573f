"""Regenerates Table 5 (per-query look-up precision per strategy).

Benchmark kernel: one LUP pattern look-up (index reads + path
filtering) against the built index.
"""

from conftest import report

from repro.bench.experiments import table5_query_details as experiment
from repro.query.workload import workload_query


def test_table5_query_details(ctx, benchmark):
    result = experiment.run(ctx)
    experiment.check(result, ctx)
    report(result)

    index = ctx.index("LUP")
    lookup = index.make_lookup(ctx.warehouse.telemetry.tracer)
    pattern = workload_query("q5").patterns[0]
    env = ctx.warehouse.cloud.env

    def one_lookup():
        return env.run_process(lookup.lookup_pattern(pattern))

    outcome = benchmark(one_lookup)
    assert outcome.document_count >= 1
