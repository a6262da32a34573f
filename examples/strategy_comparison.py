#!/usr/bin/env python
"""Compare the four indexing strategies on one corpus.

Builds LU, LUP, LUI and 2LUPI over the same warehouse, runs the
10-query workload with each (and with no index), and prints the
Table 4 / Table 5 / Figure 9 / Figure 13 story in miniature: build
times and sizes, look-up precision, response times, per-query costs,
and how many workload runs each index needs to pay for itself.
"""

from repro import (AmortizationStudy, Warehouse, generate_corpus, workload)
from repro.bench.reporting import format_duration, format_money, format_table
from repro.config import ScaleProfile
from repro.costs.estimator import (build_phase_cost, query_cost,
                                   workload_cost)
from repro.costs.metrics import DatasetMetrics
from repro.indexing.registry import ALL_STRATEGY_NAMES


def main() -> None:
    corpus = generate_corpus(ScaleProfile(documents=200,
                                          document_bytes=8 * 1024))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    dataset = DatasetMetrics.of_corpus(corpus)
    book = warehouse.cloud.price_book
    queries = workload()

    indexes = {}
    build_rows = []
    for name in ALL_STRATEGY_NAMES:
        built = warehouse.build_index(name, loaders=4)
        indexes[name] = built
        report = built.report
        build_rows.append([
            name,
            format_duration(report.avg_extraction_s),
            format_duration(report.avg_upload_s),
            format_duration(report.total_s),
            "{:.2f} MB".format(report.stored_bytes / 2 ** 20),
            format_money(build_phase_cost(warehouse, built, book).total),
        ])
    print("Index builds (4 L instances):")
    print(format_table(
        ["strategy", "extract", "upload", "total", "stored", "cost"],
        build_rows))

    reports = {name: warehouse.run_workload(queries, indexes[name])
               for name in ALL_STRATEGY_NAMES}
    reports["none"] = warehouse.run_workload(queries, None)

    print("\nPer-query details (docs from index | response seconds):")
    rows = []
    for position, query in enumerate(queries):
        row = [query.name]
        for name in ALL_STRATEGY_NAMES:
            execution = reports[name].executions[position]
            row.append("{:4d} | {:6.3f}".format(
                execution.docs_from_index, execution.response_s))
        row.append("{:6.3f}".format(
            reports["none"].executions[position].response_s))
        rows.append(row)
    print(format_table(["query"] + list(ALL_STRATEGY_NAMES) + ["no index"],
                       rows))

    print("\nWorkload costs and amortization (vs no index):")
    none_cost = workload_cost(reports["none"].executions, dataset, book)
    rows = []
    for name in ALL_STRATEGY_NAMES:
        indexed_cost = workload_cost(reports[name].executions, dataset,
                                     book)
        study = AmortizationStudy(
            strategy_name=name,
            build_cost=build_phase_cost(warehouse, indexes[name],
                                        book).total,
            workload_cost_no_index=none_cost,
            workload_cost_indexed=indexed_cost)
        rows.append([
            name,
            format_money(indexed_cost),
            "{:.0%}".format(1 - indexed_cost / none_cost),
            study.break_even_runs,
        ])
    print(format_table(
        ["strategy", "workload cost", "saving", "break-even runs"], rows))
    print("(no-index workload cost: {})".format(format_money(none_cost)))

    worst = max(query_cost(e, dataset, book)
                for e in reports["none"].executions)
    print("\nMost expensive unindexed query cost: {}".format(
        format_money(worst)))


if __name__ == "__main__":
    main()
