"""Ablation — §5.4's semi-join reduction in 2LUPI.

"We use R1(URI) to reduce the R2 relations [...] The reduction phase
serves for pre-filtering, to improve performance" — and "2LUPI returns
the same URIs as LUI".  Disabling the reduction must leave every answer
unchanged while the twig join consumes more rows on selective queries.
"""

from conftest import report

from repro.bench.reporting import ExperimentResult
from repro.indexing.lookup_plans import TwoLUPILookup
from repro.query.workload import WORKLOAD_ORDER, workload_query


def test_ablation_2lupi_reduction(ctx, benchmark):
    index = ctx.index("2LUPI")
    env = ctx.warehouse.cloud.env
    tracer = ctx.warehouse.telemetry.tracer
    reduced = TwoLUPILookup(index.store, index.table_names["lup"],
                            index.table_names["lui"], tracer,
                            reduction_enabled=True)
    unreduced = TwoLUPILookup(index.store, index.table_names["lup"],
                              index.table_names["lui"], tracer,
                              reduction_enabled=False)

    rows = []
    for name in WORKLOAD_ORDER[:7]:
        pattern = workload_query(name).patterns[0]
        with_reduction = env.run_process(reduced.lookup_pattern(pattern))
        without_reduction = env.run_process(unreduced.lookup_pattern(pattern))
        assert with_reduction.uris == without_reduction.uris, \
            "{}: the reduction is pure pre-filtering".format(name)
        rows.append([name, len(with_reduction.uris),
                     with_reduction.rows_processed,
                     without_reduction.rows_processed])
    result = ExperimentResult(
        experiment_id="Ablation A3",
        title="2LUPI semi-join reduction: plan rows with vs without",
        headers=["query", "docs", "rows (reduced)", "rows (unreduced)"],
        rows=rows)
    report(result)

    # On the most selective path query (q3) the reduction must pay off
    # in twig-join input volume despite the semi-join's own row charge.
    by_name = {row[0]: row for row in rows}
    assert by_name["q3"][2] < by_name["q3"][3], \
        "q3: reduction should shrink total plan work on selective queries"

    pattern = workload_query("q3").patterns[0]
    outcome = benchmark(
        lambda: env.run_process(reduced.lookup_pattern(pattern)))
    assert outcome.document_count == by_name["q3"][1]
