"""Shared fixtures for the telemetry test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import pytest

from repro.config import ScaleProfile
from repro.query.workload import workload_query
from repro.warehouse import Warehouse, WorkloadReport
from repro.xmark import generate_corpus

TRACE_SEED = 20130318
TRACE_QUERIES = ("q1", "q2")


@dataclass
class TracedRun:
    """A fully traced upload → build → workload run and its report."""

    warehouse: Warehouse
    report: WorkloadReport

    @property
    def telemetry(self) -> Any:
        return self.warehouse.telemetry

    @property
    def cloud(self) -> Any:
        return self.warehouse.cloud


def traced_run(seed: int = TRACE_SEED) -> TracedRun:
    """Upload a small corpus, build LU, run two queries — fully traced."""
    corpus = generate_corpus(ScaleProfile(documents=16,
                                          document_bytes=4 * 1024,
                                          seed=seed))
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("LU", loaders=2)
    report = warehouse.run_workload(
        [workload_query(name) for name in TRACE_QUERIES], index,
        workers=2)
    return TracedRun(warehouse=warehouse, report=report)


@pytest.fixture(scope="session")
def traced_warehouse() -> TracedRun:
    """One traced run shared by the export and costing tests."""
    return traced_run()
