#!/usr/bin/env python
"""The §9 future-work feature: the index advisor.

Given only *data summaries* (label/path/word document frequencies) and
the expected workload, the advisor estimates each strategy's build
cost, storage rent and per-run query cost, projects totals over an
expected horizon, and recommends a strategy — then we build the
recommended index for real and check the estimates against measurement.
"""

from repro import IndexAdvisor, Warehouse, generate_corpus, workload
from repro.bench.reporting import format_money, format_table
from repro.config import ScaleProfile
from repro.costs.estimator import workload_cost
from repro.costs.metrics import DatasetMetrics


def main() -> None:
    corpus = generate_corpus(ScaleProfile(documents=200,
                                          document_bytes=8 * 1024))
    queries = workload()
    advisor = IndexAdvisor(corpus.stats())

    print("Advisor estimates (per strategy, workload of 10 queries):")
    estimates = advisor.estimate_all(queries)
    rows = []
    for name, estimate in estimates.items():
        rows.append([
            name,
            format_money(estimate.build_cost),
            format_money(estimate.monthly_storage),
            format_money(estimate.workload_cost),
            format_money(estimate.total_cost(runs=10)),
            format_money(estimate.total_cost(runs=1000)),
        ])
    print(format_table(
        ["strategy", "build", "storage/mo", "per run",
         "total @10 runs", "total @1000 runs"], rows))

    for horizon in (5, 50, 1000):
        choice = advisor.recommend(queries, runs=horizon)
        print("recommended for {:>4} runs: {}".format(
            horizon, choice.strategy_name))

    # Reality check: build the 10-run recommendation and measure.
    choice = advisor.recommend(queries, runs=10)
    # The platform half of the advice: the cheapest query instance type
    # that answers the workload within a minute, and the loader fleet
    # that keeps DynamoDB's write throughput busy.
    platform = advisor.recommend_platform(
        queries, strategy_name=choice.strategy_name,
        max_workload_seconds=60.0)
    print("platform for a 60 s workload: queries on {}, {} loaders".format(
        platform.query_instance_type, platform.loader_instances))
    print("\nBuilding {} for real...".format(choice.strategy_name))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index(choice.strategy_name, loaders=4)
    report = warehouse.run_workload(queries, index)
    dataset = DatasetMetrics.of_corpus(corpus)
    measured = workload_cost(report.executions, dataset,
                             warehouse.cloud.price_book)
    print("estimated workload cost: {}   measured: {}".format(
        format_money(choice.workload_cost), format_money(measured)))
    estimated_docs = sum(q.documents for q in choice.per_query)
    measured_docs = sum(e.docs_from_index for e in report.executions)
    print("estimated docs retrieved: {:.0f}   measured: {}".format(
        estimated_docs, measured_docs))


if __name__ == "__main__":
    main()
