"""The platform and index advisor (§9, future work — implemented here).

"Our future works include the development of a platform and index
advisor tool, which based on the expected dataset and workload,
estimates an application's performance and cost and picks the best
indexing strategy to use."  And §8.5: the LUI/2LUPI sweet spot "can be
statically detected by using data summaries and some statistical
information."

The advisor combines:

- **data summaries** — :class:`~repro.xmldb.stats.CorpusStats`
  (label / path / word document frequencies, a DataGuide-style path set);
- **per-strategy selectivity estimation** — how many documents each
  query's look-up would retrieve, under an attribute-independence
  assumption (labels multiply for LU, paths for LUP; LUI applies a twig
  correction factor on multi-branch patterns);
- **the §7.3 cost model** — estimated per-query cost and build cost,
  projected over an expected number of workload runs.

``recommend`` returns the strategy minimising estimated total cost over
the expected horizon (build + storage + runs x workload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.config import MB, DEFAULT_PROFILE, instance_type
from repro.costs.metrics import DatasetMetrics, IndexMetrics, QueryMetrics
from repro.costs.model import (index_build_cost, monthly_storage_cost,
                               query_cost_indexed)
from repro.costs.pricing import AWS_SINGAPORE
from repro.indexing.lookup_plans import pattern_plan
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.pattern import Query, TreePattern
from repro.xmldb.stats import CorpusStats

#: Selectivity assumed for keys the summaries cannot resolve
#: (attribute name+value keys — value frequencies are not summarised).
DEFAULT_VALUE_KEY_SELECTIVITY = 0.05
#: Precision gain assumed for the twig join on multi-branch patterns
#: (LUI/2LUPI relative to LUP) — the §8.5 effect, statically guessed.
TWIG_CORRECTION = 0.7

#: The platform the estimates price: the paper's query instance and
#: loader fleet (§8.1) under the default calibration and AWS prices.
QUERY_INSTANCE_TYPE = "xl"
BUILD_INSTANCES = 8
BUILD_INSTANCE_TYPE = "l"
#: The largest loader fleet :meth:`IndexAdvisor.recommended_loader_fleet`
#: proposes.
MAX_LOADERS = 16

#: Rough per-document index-entry counts relative to measured corpora,
#: used to estimate build effort (entries ≈ keys per document).
_ENTRY_BYTES = {"LU": 24, "LUP": 70, "LUI": 34, "2LUPI": 104}


@dataclass
class QueryEstimate:
    """Estimated look-up outcome of one query under one strategy."""

    query_name: str
    documents: float
    index_gets: int


@dataclass(frozen=True)
class PlatformEstimate:
    """Estimated workload behaviour on one instance type."""

    instance_type: str
    workload_seconds: float
    workload_cost: float


@dataclass(frozen=True)
class PlatformRecommendation:
    """Full §9 advice: strategy + query VM type + loader fleet size."""

    strategy_name: str
    query_instance_type: str
    loader_instances: int
    platform: PlatformEstimate


@dataclass
class StrategyEstimate:
    """Advisor output for one strategy."""

    strategy_name: str
    per_query: List[QueryEstimate]
    build_cost: float
    monthly_storage: float
    workload_cost: float

    def total_cost(self, runs: int) -> float:
        """Projected total of ``runs`` workload runs over one month."""
        return (self.build_cost + self.monthly_storage
                + runs * self.workload_cost)


class IndexAdvisor:
    """Estimates performance/cost per strategy and recommends one."""

    def __init__(self, stats: CorpusStats) -> None:
        self.stats = stats
        self.profile = DEFAULT_PROFILE
        self.book = AWS_SINGAPORE

    # -- selectivity estimation --------------------------------------------

    def _key_selectivity(self, key: str) -> float:
        prefix, rest = key[0], key[1:]
        if prefix == "e":
            return self.stats.label_selectivity(rest)
        if prefix == "w":
            return self.stats.word_selectivity(rest)
        # Attribute keys: name-only resolves against summaries; keys
        # carrying a value get the default selectivity.
        if " " in rest:
            name = rest.split(" ", 1)[0]
            return min(self.stats.attribute_selectivity(name),
                       DEFAULT_VALUE_KEY_SELECTIVITY)
        return self.stats.attribute_selectivity(rest)

    def _path_selectivity(self, path, matches: Callable[[str], Any],
                          prefix: Optional[Callable[[str], Any]]) -> float:
        last_key = path[-1][1]
        if last_key.startswith("w") or " " in last_key:
            # Word / value steps are not in the path summary; fall back
            # to combining the structural prefix with the key estimate.
            structural = self._path_selectivity(path[:-1], prefix, None) \
                if prefix is not None else 1.0
            return structural * self._key_selectivity(last_key)
        if not self.stats.document_count:
            return 0.0
        return max((frequency for data_path, frequency
                    in self.stats.path_document_frequency.items()
                    if matches(data_path)),
                   default=0) / self.stats.document_count

    def estimate_pattern_documents(self, pattern: TreePattern,
                                   strategy_name: str) -> float:
        """Expected documents retrieved by one pattern's look-up.

        Keys along one root-to-leaf branch are *contained* in each other
        (a document holding the branch's leaf label holds its ancestors'
        labels too), so per branch we take the minimum key selectivity
        — the classic containment assumption — and assume independence
        only *across* branches.  This keeps LU >= LUP >= LUI by
        construction, matching the Table 5 ordering.
        """
        documents = self.stats.document_count
        plan = pattern_plan(pattern, include_words=True)
        selectivity = 1.0
        if strategy_name == "LU":
            for path in plan.paths:
                selectivity *= min(
                    (max(self._key_selectivity(key), 1e-6)
                     for _, key in path),
                    default=1.0)
            return documents * selectivity
        # LUP and finer: product over query paths (independence).
        for path, matches, prefix in zip(plan.paths, plan.matchers,
                                         plan.prefix_matchers):
            selectivity *= max(
                self._path_selectivity(path, matches, prefix), 1e-6)
        estimate = documents * selectivity
        if strategy_name in ("LUI", "2LUPI"):
            branches = sum(1 for shape in plan.children if len(shape) > 1)
            if branches:
                estimate *= TWIG_CORRECTION ** branches
        return max(estimate, 0.0)

    def _estimate_gets(self, pattern: TreePattern,
                       strategy_name: str) -> int:
        plan = pattern_plan(pattern, include_words=True)
        if strategy_name == "LU":
            return len(plan.lookup_keys)
        if strategy_name == "LUP":
            return len(plan.paths)
        if strategy_name == "LUI":
            return len(plan.twig_keys)
        return len(plan.twig_keys) + len(plan.paths)

    # -- cost estimation -----------------------------------------------------

    def _estimate_query_cost(self, estimate: QueryEstimate) -> float:
        """Apply the §7.3 indexed formula to estimated metrics."""
        mean_mb = self.stats.mean_document_bytes / MB
        itype = instance_type(QUERY_INSTANCE_TYPE)
        per_doc_ecu = (self.profile.parse_ecu_s_per_mb
                       + self.profile.eval_ecu_s_per_mb) * mean_mb
        processing_s = (estimate.documents * per_doc_ecu
                        / itype.total_ecu)
        metrics = QueryMetrics(
            query_name=estimate.query_name,
            result_bytes=int(64 * max(estimate.documents, 1)),
            get_operations=estimate.index_gets,
            documents_fetched=int(round(estimate.documents)),
            processing_hours=processing_s / 3600.0,
            instance_type=QUERY_INSTANCE_TYPE)
        return query_cost_indexed(self.book, metrics)

    def _estimate_build(self, strategy_name: str) -> IndexMetrics:
        documents = self.stats.document_count
        node_count = max(self.stats.node_count, 1)
        entries = node_count  # ~one entry per node key
        raw = int(_ENTRY_BYTES[strategy_name] * entries)
        write_rate = self.profile.dynamodb_write_rate_bps
        build_hours = raw / write_rate / 3600.0
        return IndexMetrics(
            strategy_name=strategy_name,
            put_operations=entries,
            build_hours=max(build_hours, documents * 1e-6),
            instances=BUILD_INSTANCES,
            instance_type=BUILD_INSTANCE_TYPE,
            raw_bytes=raw,
            overhead_bytes=entries
            * self.profile.dynamodb_overhead_bytes_per_item // 4)

    # -- public API --------------------------------------------------------------

    def estimate_strategy(self, strategy_name: str,
                          queries: Sequence[Query]) -> StrategyEstimate:
        """Full estimate of one strategy for the expected workload."""
        per_query: List[QueryEstimate] = []
        for query in queries:
            documents = sum(
                self.estimate_pattern_documents(p, strategy_name)
                for p in query.patterns)
            gets = sum(self._estimate_gets(p, strategy_name)
                       for p in query.patterns)
            per_query.append(QueryEstimate(
                query_name=query.name, documents=documents,
                index_gets=gets))
        dataset = DatasetMetrics(documents=self.stats.document_count,
                                 size_bytes=self.stats.total_bytes)
        index = self._estimate_build(strategy_name)
        return StrategyEstimate(
            strategy_name=strategy_name,
            per_query=per_query,
            build_cost=index_build_cost(self.book, dataset, index),
            monthly_storage=monthly_storage_cost(self.book, dataset, index),
            workload_cost=sum(self._estimate_query_cost(e)
                              for e in per_query))

    def estimate_all(self, queries: Sequence[Query],
                     ) -> Dict[str, StrategyEstimate]:
        """Estimates for every strategy, keyed by name."""
        return {name: self.estimate_strategy(name, queries)
                for name in ALL_STRATEGY_NAMES}

    def recommend(self, queries: Sequence[Query],
                  runs: int = 10) -> StrategyEstimate:
        """The strategy minimising estimated total cost over ``runs``
        workload runs and one month of storage."""
        estimates = self.estimate_all(queries)
        return min(estimates.values(), key=lambda e: e.total_cost(runs))

    # -- platform advice (the other half of §9's "platform and index
    # -- advisor") -----------------------------------------------------------

    def estimate_platform(self, strategy_name: str,
                          queries: Sequence[Query],
                          ) -> Dict[str, "PlatformEstimate"]:
        """Per instance type: estimated workload wall time and cost.

        Time scales inversely with the instance's total ECU (documents
        are evaluated in parallel on its cores); cost is the §7.3
        formula with the type's hourly price — which is why l and xl
        come out near-identical in cost but ~2x apart in time
        (Figures 9/11).
        """
        from repro.config import INSTANCE_TYPES
        estimate = self.estimate_strategy(strategy_name, queries)
        mean_mb = self.stats.mean_document_bytes / MB
        per_doc_ecu = (self.profile.parse_ecu_s_per_mb
                       + self.profile.eval_ecu_s_per_mb) * mean_mb
        total_docs = sum(q.documents for q in estimate.per_query)
        out: Dict[str, PlatformEstimate] = {}
        for type_name, itype in INSTANCE_TYPES.items():
            seconds = (total_docs * per_doc_ecu / itype.total_ecu
                       + total_docs * self.profile.s3_request_latency_s
                       / itype.cores)
            cost = (self.book.vm_hourly(type_name) * seconds / 3600.0
                    + estimate.workload_cost
                    - self.book.vm_hourly(QUERY_INSTANCE_TYPE)
                    * seconds / 3600.0)
            out[type_name] = PlatformEstimate(
                instance_type=type_name,
                workload_seconds=seconds,
                workload_cost=max(cost, 0.0))
        return out

    def recommend_platform(self, queries: Sequence[Query],
                           strategy_name: Optional[str] = None,
                           runs: int = 10,
                           max_workload_seconds: Optional[float] = None,
                           ) -> "PlatformRecommendation":
        """Pick strategy, query instance type and loader fleet size.

        The instance type is the cheapest whose estimated workload time
        meets ``max_workload_seconds`` (the fastest one if none does);
        the loader fleet is sized so extraction keeps the provisioned
        DynamoDB write throughput busy — beyond that point more loaders
        cannot help ("using more powerful instances could not have
        increased the throughput", §8.2).
        """
        if strategy_name is None:
            strategy_name = self.recommend(queries, runs).strategy_name
        platforms = self.estimate_platform(strategy_name, queries)
        feasible = [p for p in platforms.values()
                    if max_workload_seconds is None
                    or p.workload_seconds <= max_workload_seconds]
        if feasible:
            chosen = min(feasible, key=lambda p: p.workload_cost)
        else:
            chosen = min(platforms.values(),
                         key=lambda p: p.workload_seconds)
        return PlatformRecommendation(
            strategy_name=strategy_name,
            query_instance_type=chosen.instance_type,
            loader_instances=self.recommended_loader_fleet(strategy_name),
            platform=chosen)

    def recommended_loader_fleet(self, strategy_name: str) -> int:
        """Smallest fleet whose extraction rate saturates DynamoDB writes.

        Index building is bottlenecked by provisioned write throughput
        (Table 4); once the fleet extracts entries at least as fast as
        DynamoDB absorbs them, extra loaders only add idle cost.
        """
        index = self._estimate_build(strategy_name)
        write_seconds = index.raw_bytes / self.profile.dynamodb_write_rate_bps
        per_entry = (self.profile.extract_ecu_s_per_entry
                     + (self.profile.extract_ecu_s_per_id
                        if strategy_name in ("LUI", "2LUPI") else 0.0)
                     + (self.profile.extract_ecu_s_per_path
                        if strategy_name in ("LUP", "2LUPI") else 0.0))
        extract_ecu_total = (index.put_operations * per_entry
                             + self.stats.total_bytes / MB
                             * self.profile.parse_ecu_s_per_mb)
        per_instance_ecu = instance_type(BUILD_INSTANCE_TYPE).total_ecu
        if write_seconds <= 0:
            return 1
        needed = extract_ecu_total / (write_seconds * per_instance_ecu)
        return max(1, min(MAX_LOADERS, int(needed) + 1))
