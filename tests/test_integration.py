"""End-to-end integration: the full paper pipeline on one warehouse.

Uploads a corpus, builds all four indexes, runs the 10-query workload
with and without indexes, and cross-checks the paper's global claims:
identical answers everywhere, precision ordering, speedups, cost
savings and amortisation — the same claims the benches assert, here at
unit-test scale so ``pytest tests/`` alone exercises the whole system.
"""

import pytest

from repro import (AmortizationStudy, IndexAdvisor, Warehouse,
                   generate_corpus, query_cost, workload)
from repro.config import ScaleProfile
from repro.costs.estimator import build_phase_cost, workload_cost
from repro.costs.metrics import DatasetMetrics
from repro.indexing.registry import ALL_STRATEGY_NAMES


@pytest.fixture(scope="module")
def system():
    corpus = generate_corpus(ScaleProfile(documents=80,
                                          document_bytes=6 * 1024,
                                          seed=2013))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    indexes = {name: warehouse.build_index(name, loaders=4)
               for name in ALL_STRATEGY_NAMES}
    queries = workload()
    reports = {name: warehouse.run_workload(queries, index)
               for name, index in indexes.items()}
    reports["none"] = warehouse.run_workload(queries, None)
    return corpus, warehouse, indexes, reports


def test_all_strategies_compute_identical_answers(system):
    corpus, warehouse, indexes, reports = system
    reference = reports["LU"].executions
    for name in ("LUP", "LUI", "2LUPI", "none"):
        for ours, theirs in zip(reports[name].executions, reference):
            assert ours.result_rows == theirs.result_rows, \
                (name, ours.name)
            assert ours.result_bytes == theirs.result_bytes, \
                (name, ours.name)


def test_precision_ordering_across_workload(system):
    corpus, warehouse, indexes, reports = system
    for position in range(10):
        row = {name: reports[name].executions[position].docs_from_index
               for name in ALL_STRATEGY_NAMES}
        assert row["LU"] >= row["LUP"] >= row["LUI"] == row["2LUPI"]


def test_every_index_speeds_up_the_workload(system):
    corpus, warehouse, indexes, reports = system
    none_total = sum(e.response_s for e in reports["none"].executions)
    for name in ALL_STRATEGY_NAMES:
        indexed_total = sum(e.response_s
                            for e in reports[name].executions)
        assert indexed_total < none_total, name


def test_every_index_cuts_workload_cost(system):
    corpus, warehouse, indexes, reports = system
    dataset = DatasetMetrics.of_corpus(corpus)
    book = warehouse.cloud.price_book
    none_cost = workload_cost(reports["none"].executions, dataset, book)
    for name in ALL_STRATEGY_NAMES:
        indexed_cost = workload_cost(reports[name].executions, dataset,
                                     book)
        assert indexed_cost < none_cost, name


def test_indexes_amortise(system):
    corpus, warehouse, indexes, reports = system
    dataset = DatasetMetrics.of_corpus(corpus)
    book = warehouse.cloud.price_book
    none_cost = workload_cost(reports["none"].executions, dataset, book)
    for name in ALL_STRATEGY_NAMES:
        study = AmortizationStudy(
            strategy_name=name,
            build_cost=build_phase_cost(warehouse, indexes[name],
                                        book).total,
            workload_cost_no_index=none_cost,
            workload_cost_indexed=workload_cost(
                reports[name].executions, dataset, book))
        assert study.benefit_per_run > 0, name
        assert study.break_even_runs < 1000, name


def test_advisor_agrees_with_reality_directionally(system):
    """The advisor's per-strategy document estimates correlate with the
    measured Table 5 counts (rank order preserved on average)."""
    corpus, warehouse, indexes, reports = system
    advisor = IndexAdvisor(corpus.stats())
    estimates = advisor.estimate_all(workload())
    for name in ALL_STRATEGY_NAMES:
        estimated = sum(q.documents for q in estimates[name].per_query)
        measured = sum(e.docs_from_index
                       for e in reports[name].executions)
        assert estimated > 0 and measured > 0
    estimated_order = sorted(
        ALL_STRATEGY_NAMES,
        key=lambda n: sum(q.documents for q in estimates[n].per_query))
    assert estimated_order.index("LUI") < estimated_order.index("LU")


def test_meter_covers_all_phases(system):
    corpus, warehouse, indexes, reports = system
    tags = {record.tag for record in warehouse.cloud.meter}
    assert any(tag.startswith("index-build:LU:") for tag in tags)
    assert any(tag.startswith("workload:2LUPI") for tag in tags)
    assert any(tag.startswith("workload:none") for tag in tags)


def test_per_query_cost_positive_and_finite(system):
    corpus, warehouse, indexes, reports = system
    dataset = DatasetMetrics.of_corpus(corpus)
    book = warehouse.cloud.price_book
    for report in reports.values():
        for execution in report.executions:
            cost = query_cost(execution, dataset, book)
            assert 0 < cost < 1.0
