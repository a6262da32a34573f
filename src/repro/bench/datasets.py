"""Shared, lazily-built experiment state.

Most experiments need the same expensive artefacts: the generated
corpus, a warehouse with the corpus uploaded, the four indexes built on
8 L instances (the §8.1 setup), and single-instance workload runs per
strategy and machine type.  :class:`ExperimentContext` builds each at
most once and caches it; :func:`get_context` maintains one context per
scale so a whole pytest session shares the work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import BENCH_SCALE, ScaleProfile
from repro.costs.metrics import DatasetMetrics
from repro.query.pattern import Query
from repro.query.workload import workload
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import BuiltIndex, WorkloadReport
from repro.xmark import Corpus, generate_corpus

#: The paper's index-build fleet: 8 large instances (§8.2).
BUILD_INSTANCES = 8
BUILD_INSTANCE_TYPE = "l"


class ExperimentContext:
    """Lazily-built shared state for the benchmark experiments."""

    def __init__(self, scale: Optional[ScaleProfile] = None) -> None:
        self.scale = scale or BENCH_SCALE
        self._corpus: Optional[Corpus] = None
        self._warehouse: Optional[Warehouse] = None
        self._queries: Optional[List[Query]] = None
        self._indexes: Dict[Tuple[str, bool, str], BuiltIndex] = {}
        self._workloads: Dict[Tuple[str, str, str], WorkloadReport] = {}

    # -- base artefacts -----------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        """The generated corpus (built on first access)."""
        if self._corpus is None:
            self._corpus = generate_corpus(self.scale)
        return self._corpus

    @property
    def warehouse(self) -> Warehouse:
        """The deployed warehouse with the corpus uploaded."""
        if self._warehouse is None:
            self._warehouse = Warehouse()
            self._warehouse.upload_corpus(self.corpus)
        return self._warehouse

    @property
    def queries(self) -> List[Query]:
        """The 10-query workload, parsed once."""
        if self._queries is None:
            self._queries = workload()
        return self._queries

    @property
    def dataset_metrics(self) -> DatasetMetrics:
        """``|D|`` / ``s(D)`` metrics for the corpus."""
        return DatasetMetrics.of_corpus(self.corpus)

    # -- indexes ---------------------------------------------------------------

    def index(self, strategy_name: str, include_words: bool = True,
              backend: str = "dynamodb") -> BuiltIndex:
        """The strategy's index, built once on the §8.1 loader fleet.

        ``backend="simpledb"`` builds the [8] baseline variant used by
        the Tables 7-8 comparison.
        """
        key = (strategy_name, include_words, backend)
        if key not in self._indexes:
            self._indexes[key] = self.warehouse.build_index(
                strategy_name,
                config={"loaders": BUILD_INSTANCES,
                        "loader_type": BUILD_INSTANCE_TYPE,
                        "backend": backend},
                include_words=include_words)
        return self._indexes[key]

    # -- workload runs ------------------------------------------------------------

    def workload_report(self, strategy_name: Optional[str],
                        instance_type: str = "xl",
                        backend: str = "dynamodb") -> WorkloadReport:
        """One sequential single-instance run of the 10-query workload.

        ``strategy_name=None`` is the no-index baseline.
        """
        key = (strategy_name or "none", instance_type, backend)
        if key not in self._workloads:
            index = (self.index(strategy_name, backend=backend)
                     if strategy_name else None)
            self._workloads[key] = self.warehouse.run_workload(
                self.queries, index,
                config={"workers": 1, "worker_type": instance_type})
        return self._workloads[key]

    def execution(self, strategy_name: Optional[str], query_name: str,
                  instance_type: str = "xl", backend: str = "dynamodb"):
        """One query's execution record from the cached workload run."""
        report = self.workload_report(strategy_name, instance_type, backend)
        for execution in report.executions:
            if execution.name == query_name:
                return execution
        raise KeyError(query_name)


_CONTEXTS: Dict[Tuple[int, int], ExperimentContext] = {}


def get_context(scale: Optional[ScaleProfile] = None) -> ExperimentContext:
    """Process-wide shared context (one per corpus scale)."""
    scale = scale or BENCH_SCALE
    key = (scale.documents, scale.document_bytes)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = ExperimentContext(scale)
    return _CONTEXTS[key]
