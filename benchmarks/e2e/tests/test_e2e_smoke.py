"""``--smoke``: all four workloads pass the oracle in a few seconds."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from e2e_paths import E2E, ROOT
import run
import workloads


def test_smoke_of_all_four_workloads_passes_the_oracle(tmp_path):
    started = time.perf_counter()
    for name in run.WORKLOAD_NAMES:
        result = run.run_workload(name, run.DEFAULT_SEED, seconds=0,
                                  trace=False, smoke=True, out_dir=tmp_path)
        assert result["correct"], result["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 30
        assert set(result["end_to_end"]) == set(run.END_TO_END)
        assert all(value > 0 for value in result["end_to_end"].values())
    assert time.perf_counter() - started <= 5.0


def test_traced_rounds_agree_with_untraced_ones(tmp_path):
    result = run.run_workload("ingest-live", 7, seconds=0, trace=True,
                              smoke=True, out_dir=tmp_path)
    # The digest check inside run_workload compares the traced round's
    # simulated outputs with the untraced round's.
    assert result["correct"], result["failures"]
    layer = result["per_layer"]
    assert list(layer) == [row[0] for row in run.per_layer_table()]
    assert layer["trace.coverage_ratio"] >= 0.8
    assert layer["trace.boundaries_unresolved"] == 0
    assert layer["mutations.calls"] > 0 and layer["mutations.deltas"] == 5
    assert layer["tenancy.calls"] == 0
    trace = json.loads((tmp_path / "trace-ingest-live.json").read_text())
    assert trace["traceEvents"]
    assert {"setup", "main", "probe"} <= set(trace["otherData"])


def test_a_wrong_answer_fails_the_round():
    workload = workloads.make_workload("build-2lupi", 7, smoke=True)
    workload.prepare()
    rows, size = workload.expected["q6"]
    workload.expected["q6"] = (rows + 1, size)
    outcome = run.run_round(workload)["outcome"]
    assert outcome.failed == 1 and "q6" in outcome.failures[0]


def test_the_model_corpus_follows_the_mutations():
    workload = workloads.make_workload("ingest-live", 7, smoke=True)
    base = workload._corpus(workload.sizes["documents"])
    deleted, feed = workload._mutations(base)
    model = workload._model()
    updated = {payload[0]: payload[1] for op, payload in feed
               if op == "update"}
    added = [uri for op, payload in feed if op == "add"
             for uri in payload.data]
    assert len(deleted) == 4 and not set(deleted) & set(model)
    assert not set(deleted) & set(updated)
    assert all(model[uri] == data != base.data[uri]
               for uri, data in updated.items())
    assert added and set(added) <= set(model)
    assert len(model) == len(base) + len(added) - len(deleted)


def _command(directory, *arguments):
    return subprocess.run(
        [sys.executable, str(directory / "benchmarks" / "e2e" / "run.py")]
        + list(arguments), cwd=str(directory), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, universal_newlines=True, check=False)


def test_command_prints_the_result_object_last(tmp_path):
    completed = _command(ROOT, "--workload", "query-closed", "--seed", "11",
                         "--seconds", "1", "--trace", "0", "--smoke",
                         "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert all(set(metric) == {"value", "unit"}
               for metric in last["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(str(E2E), str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _command(tmp_path, "--workload", "build-2lupi", "--seed",
                         "1", "--seconds", "1", "--trace", "0")
    assert completed.returncode not in (0, None)
    assert completed.stdout == ""
