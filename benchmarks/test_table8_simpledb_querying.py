"""Regenerates Table 8 (querying: SimpleDB baseline [8] vs DynamoDB).

Benchmark kernel: a LUI pattern look-up against the DynamoDB-backed
index (the fast side of the comparison).
"""

from conftest import report

from repro.bench.experiments import table8_simpledb_querying as experiment
from repro.query.workload import workload_query


def test_table8_simpledb_querying(ctx, benchmark):
    result = experiment.run(ctx)
    experiment.check(result, ctx)
    report(result)

    index = ctx.index("LUI")
    lookup = index.make_lookup(ctx.warehouse.telemetry.tracer)
    pattern = workload_query("q6").patterns[0]
    env = ctx.warehouse.cloud.env

    outcome = benchmark(
        lambda: env.run_process(lookup.lookup_pattern(pattern)))
    assert outcome.document_count >= 1
