"""Unit tests for the measured-bill estimator (Table 6 / Figure 12)."""

import pytest

from repro.config import ScaleProfile
from repro.costs.estimator import (CostBreakdown, build_phase_cost,
                                   phase_cost, query_cost, workload_cost,
                                   workload_cost_breakdown)
from repro.costs.metrics import DatasetMetrics
from repro.costs.pricing import AWS_SINGAPORE
from repro.query.workload import workload_query
from repro.sim import Meter
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def warehouse():
    wh = Warehouse()
    wh.upload_corpus(generate_corpus(ScaleProfile(documents=30, seed=41)))
    return wh


@pytest.fixture(scope="module")
def lu_index(warehouse):
    return warehouse.build_index("LU", loaders=2)


class TestCostBreakdown:
    def test_total_sums_components(self):
        breakdown = CostBreakdown(s3=1, dynamodb=2, simpledb=3, ec2=4,
                                  sqs=5, egress=6)
        assert breakdown.total == 21

    def test_add(self):
        combined = CostBreakdown(s3=1).add(CostBreakdown(s3=2, ec2=3))
        assert combined.s3 == 3
        assert combined.ec2 == 3


class TestPhaseCost:
    def test_prices_requests_by_service(self):
        meter = Meter()
        with meter.tagged("phase"):
            meter.record(0.0, "s3", "put", count=10)
            meter.record(0.0, "s3", "get", count=100)
            meter.record(0.0, "dynamodb", "put", count=1000)
            meter.record(0.0, "dynamodb", "get", count=50)
            meter.record(0.0, "sqs", "send_message", count=30)
        out = phase_cost(meter, AWS_SINGAPORE, "phase")
        book = AWS_SINGAPORE
        assert out.s3 == pytest.approx(10 * book.st_put + 100 * book.st_get)
        assert out.dynamodb == pytest.approx(
            1000 * book.idx_put + 50 * book.idx_get)
        assert out.sqs == pytest.approx(30 * book.qs_request)

    def test_tag_filtering(self):
        meter = Meter()
        with meter.tagged("a"):
            meter.record(0.0, "s3", "put")
        with meter.tagged("b"):
            meter.record(0.0, "s3", "put", count=5)
        assert phase_cost(meter, AWS_SINGAPORE, "a").s3 == \
            pytest.approx(AWS_SINGAPORE.st_put)

    def test_simpledb_priced_separately(self):
        meter = Meter()
        with meter.tagged("p"):
            meter.record(0.0, "simpledb", "put", count=100)
            meter.record(0.0, "simpledb", "select", count=10)
        out = phase_cost(meter, AWS_SINGAPORE, "p")
        assert out.simpledb == pytest.approx(
            100 * AWS_SINGAPORE.simpledb_put
            + 10 * AWS_SINGAPORE.simpledb_get)


class TestBuildPhaseCost:
    def test_covers_build_services(self, warehouse, lu_index):
        breakdown = build_phase_cost(warehouse, lu_index)
        assert breakdown.dynamodb > 0
        assert breakdown.ec2 > 0
        assert breakdown.sqs > 0
        assert breakdown.s3 > 0
        assert breakdown.total == pytest.approx(
            breakdown.s3 + breakdown.dynamodb + breakdown.ec2
            + breakdown.sqs)

    def test_prices_only_its_own_build_tag(self):
        # Build 1's tag "index-build:LU:1" prefixes builds 10-19's: later
        # builds of the same strategy must not move its price.
        warehouse = Warehouse(deployment={"loaders": 1})
        warehouse.upload_corpus(
            generate_corpus(ScaleProfile(documents=2, seed=41)))
        first = warehouse.build_index("LU")
        before = build_phase_cost(warehouse, first)
        later = [warehouse.build_index("LU") for _ in range(9)]
        assert later[-1].report.tag == "index-build:LU:10"
        assert build_phase_cost(warehouse, first) == before


class TestQueryCosts:
    def test_indexed_vs_scan_formula_choice(self, warehouse, lu_index):
        dataset = DatasetMetrics.of_corpus(warehouse.corpus)
        indexed = warehouse.run_query(workload_query("q1"), lu_index)
        scanned = warehouse.run_query(workload_query("q1"), None)
        assert query_cost(indexed, dataset, AWS_SINGAPORE) < \
            query_cost(scanned, dataset, AWS_SINGAPORE)

    def test_workload_cost_sums(self, warehouse, lu_index):
        dataset = DatasetMetrics.of_corpus(warehouse.corpus)
        report = warehouse.run_workload(
            [workload_query("q1"), workload_query("q2")], lu_index)
        total = workload_cost(report.executions, dataset, AWS_SINGAPORE)
        assert total == pytest.approx(sum(
            query_cost(e, dataset, AWS_SINGAPORE)
            for e in report.executions))

    def test_breakdown_total_matches_formula_total(self, warehouse,
                                                   lu_index):
        dataset = DatasetMetrics.of_corpus(warehouse.corpus)
        report = warehouse.run_workload(
            [workload_query("q2"), workload_query("q6")], lu_index)
        breakdown = workload_cost_breakdown(report.executions, dataset,
                                            AWS_SINGAPORE)
        total = workload_cost(report.executions, dataset, AWS_SINGAPORE)
        assert breakdown.total == pytest.approx(total, rel=1e-9)
