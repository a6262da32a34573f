"""Ablation — §5.3's sorted ID lists.

LUI stores structural identifiers "already sorted by their pre
component [...] to reduce the use of expensive sort operators after the
look-up".  The ablated look-up assumes nothing and pays an n·log n sort
charge per stream.  Same answers, strictly more plan work.
"""

from conftest import report

from repro.bench.reporting import ExperimentResult
from repro.indexing.lookup_plans import LUILookup
from repro.query.workload import WORKLOAD_ORDER, workload_query


def test_ablation_unsorted_ids(ctx, benchmark):
    index = ctx.index("LUI")
    table = index.table_names["lui"]
    env = ctx.warehouse.cloud.env
    tracer = ctx.warehouse.telemetry.tracer
    sorted_lookup = LUILookup(index.store, table, tracer, assume_sorted=True)
    ablated_lookup = LUILookup(index.store, table, tracer,
                               assume_sorted=False)

    rows = []
    for name in WORKLOAD_ORDER[:7]:  # the single-pattern queries
        pattern = workload_query(name).patterns[0]
        with_sort = env.run_process(ablated_lookup.lookup_pattern(pattern))
        without_sort = env.run_process(sorted_lookup.lookup_pattern(pattern))
        assert with_sort.uris == without_sort.uris, \
            "{}: sorting must not change the answer".format(name)
        rows.append([name, without_sort.rows_processed,
                     with_sort.rows_processed,
                     round(with_sort.rows_processed
                           / max(without_sort.rows_processed, 1), 2)])
    result = ExperimentResult(
        experiment_id="Ablation A1",
        title="LUI look-up plan rows: pre-sorted IDs vs sort-at-query-time",
        headers=["query", "rows (sorted index)", "rows (ablated)",
                 "overhead x"],
        rows=rows)
    report(result)

    for name, sorted_rows, ablated_rows, _ in rows:
        assert ablated_rows >= sorted_rows, name
    assert any(ablated_rows > sorted_rows
               for _, sorted_rows, ablated_rows, _ in rows), \
        "the sort charge should show up on at least one query"

    pattern = workload_query("q6").patterns[0]
    outcome = benchmark(
        lambda: env.run_process(sorted_lookup.lookup_pattern(pattern)))
    assert outcome.document_count >= 1
