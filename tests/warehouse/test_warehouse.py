"""Integration tests for the Warehouse orchestration API."""

import pytest

from repro.config import ScaleProfile
from repro.errors import ConfigError, NoSuchTable, WarehouseError
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=50, document_bytes=4096,
                                        seed=13))


@pytest.fixture(scope="module")
def warehouse(corpus):
    wh = Warehouse()
    wh.upload_corpus(corpus)
    return wh


@pytest.fixture(scope="module")
def lup_index(warehouse):
    return warehouse.build_index(
        "LUP", config={"loaders": 4, "loader_type": "l"})


class TestUpload:
    def test_documents_in_s3(self, warehouse, corpus):
        assert warehouse.cloud.s3.object_count("documents") == len(corpus)
        assert warehouse.cloud.s3.bucket_bytes("documents") == \
            corpus.total_bytes

    def test_build_before_upload_rejected(self):
        with pytest.raises(WarehouseError):
            Warehouse().build_index("LU")

    def test_query_before_upload_rejected(self):
        with pytest.raises(WarehouseError):
            Warehouse().run_workload([workload_query("q1")], None)


class TestBuildIndex:
    def test_report_consistency(self, lup_index, corpus):
        report = lup_index.report
        assert report.strategy_name == "LUP"
        assert report.documents == len(corpus)
        assert report.instances == 4
        assert report.total_s > 0
        assert report.avg_extraction_s > 0
        assert report.avg_upload_s > 0
        assert report.puts == report.items  # every item is one put op
        assert report.stored_bytes == report.raw_bytes + report.overhead_bytes
        assert report.vm_hours > 0

    def test_tables_created(self, warehouse, lup_index):
        names = warehouse.cloud.dynamodb.table_names()
        for physical in lup_index.physical_tables:
            assert physical in names

    def test_phase_recorded_and_tagged(self, warehouse, lup_index):
        tags = [phase.tag for phase in warehouse.phases]
        assert lup_index.report.tag in tags
        records = warehouse.cloud.meter.records(tag=lup_index.report.tag)
        services = {r.service for r in records}
        assert {"dynamodb", "sqs", "s3"} <= services

    def test_rebuild_uses_fresh_tables(self, warehouse, lup_index):
        second = warehouse.build_index("LUP", config={"loaders": 2})
        assert set(second.physical_tables).isdisjoint(
            lup_index.physical_tables)

    def test_unknown_backend_rejected(self, warehouse):
        with pytest.raises(ConfigError):
            warehouse.build_index("LU", config={"backend": "cassandra"})

    def test_instances_stopped_after_build(self, warehouse, lup_index):
        assert all(not i.running for i in warehouse.cloud.ec2.instances())


class TestRunQuery:
    def test_single_query_execution(self, warehouse, lup_index):
        execution = warehouse.run_query(workload_query("q1"), lup_index)
        assert execution.strategy_name == "LUP"
        assert execution.response_s > execution.processing_s > 0
        assert execution.docs_from_index >= execution.docs_with_results
        assert execution.documents_fetched == execution.docs_from_index
        assert execution.index_gets > 0

    def test_no_index_scans_everything(self, warehouse, corpus):
        execution = warehouse.run_query(workload_query("q1"), None)
        assert execution.strategy_name == "none"
        assert execution.documents_fetched == len(corpus)
        assert execution.index_gets == 0
        assert execution.lookup_get_s == 0.0

    def test_results_written_to_s3(self, warehouse, lup_index):
        before = warehouse.cloud.s3.object_count("results")
        warehouse.run_query(workload_query("q2"), lup_index)
        assert warehouse.cloud.s3.object_count("results") == before + 1

    def test_same_results_with_and_without_index(self, warehouse, lup_index):
        for name in ("q2", "q5", "q8"):
            query = workload_query(name)
            indexed = warehouse.run_query(query, lup_index)
            scanned = warehouse.run_query(query, None)
            assert indexed.result_rows == scanned.result_rows, name
            assert indexed.result_bytes == scanned.result_bytes, name
            assert indexed.docs_with_results == scanned.docs_with_results


class TestRunWorkload:
    def test_sequential_workload(self, warehouse, lup_index):
        queries = [workload_query(n) for n in ("q1", "q2", "q3")]
        report = warehouse.run_workload(queries, lup_index,
                                        config={"workers": 1})
        assert [e.name for e in report.executions] == ["q1", "q2", "q3"]
        assert report.makespan_s >= max(e.response_s
                                        for e in report.executions)

    def test_repeats(self, warehouse, lup_index):
        report = warehouse.run_workload(
            [workload_query("q1")], lup_index, repeats=3)
        assert len(report.executions) == 3
        assert {e.name for e in report.executions} == {"q1"}

    def test_pipeline_multiple_instances_faster(self, warehouse, lup_index):
        queries = [workload_query(n) for n in ("q2", "q4", "q6")]
        solo = warehouse.run_workload(queries, lup_index,
                                      config={"workers": 1},
                                      repeats=4, pipeline=True)
        fleet = warehouse.run_workload(queries, lup_index,
                                       config={"workers": 4},
                                       repeats=4, pipeline=True)
        assert fleet.makespan_s < solo.makespan_s

    def test_by_name_grouping(self, warehouse, lup_index):
        report = warehouse.run_workload(
            [workload_query("q1"), workload_query("q2")], lup_index,
            repeats=2)
        grouped = report.by_name()
        assert len(grouped["q1"]) == 2
        assert len(grouped["q2"]) == 2


def test_drop_index_frees_storage(warehouse):
    built = warehouse.build_index("LU", config={"loaders": 2})
    stored = built.stored_bytes()
    assert stored > 0
    freed = warehouse.drop_index(built)
    assert freed == stored
    with pytest.raises(NoSuchTable):
        warehouse.cloud.dynamodb.table(built.physical_tables[0])
