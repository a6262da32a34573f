"""Unit tests for the query processor workers (Figure 1, steps 9-15)."""

import pytest

from repro.config import ScaleProfile
from repro.engine.evaluator import evaluate_query
from repro.query.parser import parse_query
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus


@pytest.fixture(scope="module")
def warehouse():
    wh = Warehouse()
    wh.upload_corpus(generate_corpus(ScaleProfile(documents=40, seed=31)))
    return wh


@pytest.fixture(scope="module")
def lui_index(warehouse):
    return warehouse.build_index("LUI", config={"loaders": 2})


def test_results_match_direct_evaluation(warehouse, lui_index):
    """The whole pipeline computes exactly what the engine computes."""
    for name in ("q1", "q2", "q6", "q8"):
        query = workload_query(name)
        execution = warehouse.run_query(query, lui_index)
        direct = evaluate_query(query, warehouse.corpus.documents)
        assert execution.result_rows == len(direct), name


def test_time_decomposition_components(warehouse, lui_index):
    execution = warehouse.run_query(workload_query("q2"), lui_index)
    assert execution.lookup_get_s > 0
    assert execution.lookup_plan_s > 0
    assert execution.fetch_eval_s > 0
    # Response covers worker processing plus queue/result overheads.
    assert execution.response_s > execution.processing_s
    # Components were measured sequentially within one worker here, so
    # processing bounds their sum from above only up to core overlap.
    assert execution.processing_s <= (
        execution.lookup_get_s + execution.lookup_plan_s
        + execution.fetch_eval_s) + 1.0


def test_join_query_fetches_union_of_pattern_sets(warehouse, lui_index):
    execution = warehouse.run_query(workload_query("q8"), lui_index)
    assert len(execution.per_pattern_docs) == 2
    assert execution.documents_fetched <= execution.docs_from_index


def test_value_join_results_span_documents(warehouse, lui_index):
    execution = warehouse.run_query(workload_query("q8"), lui_index)
    assert execution.result_rows > 0
    assert execution.docs_with_results > 1


def test_empty_result_query(warehouse, lui_index):
    query = parse_query('//person[/name="No Such Person"][/@id{val}]',
                        name="empty")
    execution = warehouse.run_query(query, lui_index)
    assert execution.result_rows == 0
    assert execution.result_bytes == 0
    assert execution.docs_with_results == 0
    # The empty result was still written and announced.
    key = "results/{}.txt".format(
        max(int(k.split("/")[1].split(".")[0])
            for k in warehouse.cloud.s3._bucket("results").objects))
    assert warehouse.cloud.s3.peek("results", key).data == b""


def test_xl_processes_faster_than_l(warehouse, lui_index):
    l_execution = warehouse.run_query(workload_query("q2"), lui_index,
                                      config={"worker_type": "l"})
    xl_execution = warehouse.run_query(workload_query("q2"), lui_index,
                                       config={"worker_type": "xl"})
    assert xl_execution.fetch_eval_s < l_execution.fetch_eval_s


def test_index_gets_counted_per_query(warehouse, lui_index):
    execution = warehouse.run_query(workload_query("q6"), lui_index)
    # q6's twig has 4 labels -> 4 LUI gets.
    assert execution.index_gets == 4


STRATEGIES = ["LU", "LUP", "LUI", "2LUPI"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_worker_parses_each_query_once_and_never_mutates_it(
        monkeypatch, strategy):
    """Thirty requests over ten texts in one call, then ten more through
    single-query calls on another strategy, cost the warehouse ten
    parses — safe to share across workers because processing leaves a
    parsed Query as it was."""
    from repro.query.parser import query_to_source
    from repro.query.workload import workload
    from repro.warehouse import query_processor

    parsed = []

    def recording_parse(text, name=""):
        query = parse_query(text, name=name)
        parsed.append((query, query_to_source(query)))
        return query

    monkeypatch.setattr(query_processor, "parse_query", recording_parse)
    warehouse = Warehouse()
    warehouse.upload_corpus(generate_corpus(ScaleProfile(documents=40,
                                                         seed=31)))
    index = warehouse.build_index(strategy, config={"loaders": 2})
    report = warehouse.run_workload(workload(), index,
                                    config={"workers": 1}, repeats=3)
    other = warehouse.build_index(
        STRATEGIES[(STRATEGIES.index(strategy) + 1) % len(STRATEGIES)],
        config={"loaders": 2})
    executions = report.executions + [
        warehouse.run_query(query, other) for query in workload()]
    assert len(executions) == 40
    assert [query.name for query, _ in parsed] == [
        query.name for query in workload()]
    for query, source in parsed:
        assert query_to_source(query) == source, query.name
    by_name = {}
    for execution in executions:
        by_name.setdefault(execution.name, set()).add(execution.result_rows)
    for query in workload():
        assert by_name[query.name] == {
            len(evaluate_query(query, warehouse.corpus.documents))}


def test_the_parsed_query_table_is_bounded(warehouse, lui_index, monkeypatch):
    """One FIFO table per warehouse, shared by every call's workers."""
    from repro.warehouse import query_processor
    monkeypatch.setattr(query_processor, "PARSED_QUERIES_PER_WAREHOUSE", 2)
    monkeypatch.setattr(warehouse, "_parsed_queries", {})
    parses = []
    monkeypatch.setattr(
        query_processor, "parse_query",
        lambda text, name="": parses.append(name) or parse_query(
            text, name=name))
    names = ("q1", "q2", "q1", "q6", "q6", "q1")
    report = warehouse.run_workload([workload_query(name) for name in names],
                                    lui_index, config={"workers": 1})
    assert len(report.executions) == 6
    # q1 is parsed again once q2 and q6 have pushed it out.
    assert parses == ["q1", "q2", "q6", "q1"]
    # Later calls read the same table, which holds q6 and q1: q1 hits,
    # then q2, q6 and q1 each push the oldest entry out.
    for name in names:
        warehouse.run_query(workload_query(name), lui_index)
    assert parses == ["q1", "q2", "q6", "q1", "q2", "q6", "q1"]
