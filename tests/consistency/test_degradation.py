"""Graceful query degradation: 2LUPI -> LU -> full S3 scan."""

import pytest

from repro.config import ScaleProfile
from repro.consistency.degradation import FULL_SCAN
from repro.faults.scenarios import _workload_answers
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 12
SEED = 7
QUERIES = ("q1", "q2")


@pytest.fixture(scope="module")
def setup():
    warehouse = Warehouse()
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    primary, _ = warehouse.build_index_checkpointed(
        "2LUPI", loaders=2, batch_size=4)
    fallback, _ = warehouse.build_index_checkpointed(
        "LU", loaders=2, batch_size=4)
    queries = [workload_query(name) for name in QUERIES]
    baseline = _workload_answers(
        warehouse, warehouse.run_workload(queries, primary,
                                          workers=1))
    return warehouse, primary, fallback, queries, baseline


@pytest.mark.scrub
def test_healthy_chain_uses_the_primary(setup):
    warehouse, primary, fallback, queries, baseline = setup
    report = warehouse.run_degraded_workload(queries, [primary, fallback])
    assert _workload_answers(warehouse, report) == baseline
    assert all(e.index_mode == primary.strategy.name
               for e in report.executions)


@pytest.mark.scrub
def test_suspect_primary_falls_back_and_is_metered(setup):
    warehouse, primary, fallback, queries, baseline = setup
    before = dict(warehouse.health.downgrades)
    for table in primary.physical_tables:
        warehouse.health.mark(table, "suspect")
    try:
        report = warehouse.run_degraded_workload(queries,
                                                 [primary, fallback])
        # Degraded answers are still correct...
        assert _workload_answers(warehouse, report) == baseline
        # ...resolved by the fallback index...
        assert all(e.index_mode == fallback.strategy.name
                   for e in report.executions)
        # ...and every downgrade is accounted for.
        after = warehouse.health.downgrades
        assert after.get("LU", 0) > before.get("LU", 0)
        downgrade_records = [
            r for r in warehouse.cloud.meter.records("consistency")
            if r.operation.startswith("downgrade:2LUPI:")]
        assert downgrade_records
    finally:
        for table in primary.physical_tables:
            warehouse.health.mark(table, "healthy")


@pytest.mark.scrub
def test_nothing_usable_degrades_to_full_scan(setup):
    warehouse, primary, fallback, queries, baseline = setup
    marked = primary.physical_tables + fallback.physical_tables
    for table in marked:
        warehouse.health.mark(table, "suspect")
    try:
        report = warehouse.run_degraded_workload(queries,
                                                 [primary, fallback])
        # The full corpus scan is a superset the evaluator filters, so
        # answers stay correct — just slower and billed like the
        # paper's no-index baseline.
        assert _workload_answers(warehouse, report) == baseline
        assert all(e.index_mode == FULL_SCAN for e in report.executions)
        assert warehouse.health.downgrades.get(FULL_SCAN, 0) > 0
    finally:
        for table in marked:
            warehouse.health.mark(table, "healthy")


@pytest.mark.scrub
def test_degraded_workload_appears_in_monitoring(setup):
    warehouse, primary, fallback, queries, baseline = setup
    for table in primary.physical_tables:
        warehouse.health.mark(table, "suspect")
    try:
        warehouse.run_degraded_workload(queries, [primary, fallback])
        from repro.warehouse.monitoring import resource_report
        report = resource_report(warehouse)
        assert report.downgrades
        assert report.table_health
        assert any("2LUPI" in line or "LU" in line
                   for line in report.index_epochs)
        rendered = report.render()
        assert "query downgrades" in rendered
        assert "table health" in rendered
    finally:
        for table in primary.physical_tables:
            warehouse.health.mark(table, "healthy")
