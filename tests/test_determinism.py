"""End-to-end determinism: identical inputs, identical runs.

EXPERIMENTS.md promises bit-for-bit reproducibility; this test builds
the same warehouse twice from scratch — corpus, index, workload — and
compares every number the experiments report.
"""

import pytest

from repro.config import ScaleProfile
from repro.query.workload import workload
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus


def _run_once():
    corpus = generate_corpus(ScaleProfile(documents=40, seed=111))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("2LUPI", loaders=3)
    report = warehouse.run_workload(workload()[:5], index)
    build = index.report
    return {
        "corpus_bytes": corpus.total_bytes,
        "build": (build.total_s, build.avg_extraction_s,
                  build.avg_upload_s, build.puts, build.items,
                  build.raw_bytes, build.overhead_bytes),
        "executions": [
            (e.name, e.response_s, e.processing_s, e.lookup_get_s,
             e.lookup_plan_s, e.fetch_eval_s, e.docs_from_index,
             e.docs_with_results, e.result_rows, e.result_bytes,
             e.index_gets, e.rows_processed)
            for e in report.executions],
        "meter_len": len(warehouse.cloud.meter),
        "clock": warehouse.cloud.env.now,
    }


def test_full_pipeline_bit_for_bit_deterministic():
    first = _run_once()
    second = _run_once()
    assert first == second


def test_different_seed_differs():
    first = _run_once()
    corpus = generate_corpus(ScaleProfile(documents=40, seed=112))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("2LUPI", loaders=3)
    report = warehouse.run_workload(workload()[:5], index)
    assert first["corpus_bytes"] != corpus.total_bytes or \
        first["executions"] != [
            (e.name, e.response_s, e.processing_s, e.lookup_get_s,
             e.lookup_plan_s, e.fetch_eval_s, e.docs_from_index,
             e.docs_with_results, e.result_rows, e.result_bytes,
             e.index_gets, e.rows_processed)
            for e in report.executions]
