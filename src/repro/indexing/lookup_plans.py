"""Index look-up planners: query pattern → candidate document URIs.

One planner per strategy (§5.1-§5.4).  Each planner runs as a simulated
process: index reads go through the :class:`~repro.indexing.mapper.IndexStore`
(accruing DynamoDB latency/throughput and billable get operations), and
post-processing flows through the :mod:`~repro.engine.operators` plan
operators so every processed row is counted — the "Lookup - Plan
execution" component of Figures 9b/9c.

Common machinery:

- :func:`pattern_lookup_keys` — the LU/LUI key extraction ("all node
  names, attribute and element string values are extracted from the
  query", §5.1), with attribute equality predicates refined into
  name+value keys and word predicates into ``w`` keys;
- :func:`pattern_query_paths` — the LUP root-to-leaf query paths with
  their ``/`` / ``//`` edge types (§5.2), plus extra word-step paths for
  word predicates;
- :func:`expand_pattern_for_twig` — the LUI twig: a predicate-free
  clone of the pattern where each word predicate becomes an extra leaf
  matched against the word key's ID stream (§5.3);
- range predicates contribute nothing to any look-up (§5.5: evaluated
  after the index narrows the document set).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.engine.columnar import flatten_twig, twig_exists
from repro.engine.operators import HashIntersect, PlanStats, SemiJoin
from repro.indexing.keys import (attribute_key, attribute_value_key,
                                 element_key)
from repro.indexing.mapper import IndexStore
from repro.query.pattern import Axis, PatternNode, Query, TreePattern
from repro.query.predicates import Equals
from repro.telemetry.spans import maybe_span

WORD_PREFIX = "w"


def _node_key(node: PatternNode) -> str:
    """The index key a pattern node is looked up under."""
    if node.is_attribute:
        if isinstance(node.predicate, Equals):
            return attribute_value_key(node.label, node.predicate.constant)
        return attribute_key(node.label)
    return element_key(node.label)


def _node_words(node: PatternNode) -> List[str]:
    """Index-usable words from an element node's value predicate."""
    if node.is_attribute or node.predicate is None:
        return []
    return node.predicate.lookup_words()


def pattern_lookup_keys(pattern: TreePattern,
                        include_words: bool) -> List[str]:
    """All index keys the LU look-up intersects (first-seen order)."""
    keys: List[str] = []
    for node in pattern.iter_nodes():
        keys.append(_node_key(node))
        if include_words:
            keys.extend(WORD_PREFIX + word for word in _node_words(node))
    return list(dict.fromkeys(keys))


# -- LUP query paths ---------------------------------------------------------

QueryPath = Tuple[Tuple[Axis, str], ...]  # ((axis, key), ...)


def pattern_query_paths(pattern: TreePattern,
                        include_words: bool) -> List[QueryPath]:
    """Root-to-leaf query paths (§5.2), plus word-extended paths."""
    paths: List[QueryPath] = []
    for branch in pattern.root_to_leaf_paths():
        steps = tuple((axis, _node_key(node)) for axis, node in branch)
        words = _node_words(branch[-1][1]) if include_words else []
        if words:
            # One extended path per predicate word; the word may sit in
            # any text descendant of the element (string value
            # semantics), hence the descendant edge.
            for word in words:
                paths.append(steps + ((Axis.DESCENDANT, WORD_PREFIX + word),))
        else:
            paths.append(steps)
    if include_words:
        # Word predicates on *internal* nodes also constrain documents:
        # emit root-to-node+word paths for them too.
        for node in pattern.iter_nodes():
            if node.is_leaf:
                continue
            for word in _node_words(node):
                prefix = _path_to_node(pattern, node)
                paths.append(prefix + ((Axis.DESCENDANT, WORD_PREFIX + word),))
    return list(dict.fromkeys(paths))


def _path_to_node(pattern: TreePattern, target: PatternNode) -> QueryPath:
    for branch in pattern.root_to_leaf_paths():
        steps: List[Tuple[Axis, str]] = []
        for axis, node in branch:
            steps.append((axis, _node_key(node)))
            if node is target:
                return tuple(steps)
    raise ValueError("node not in pattern")


def query_path_regex(path: QueryPath) -> "re.Pattern":
    """Compile a query path into a regex over indexed data paths.

    A ``/`` edge consumes exactly one path segment, a ``//`` edge any
    number of intermediate segments.  The pattern root is reached by a
    descendant edge from the document root.
    """
    parts: List[str] = ["^"]
    for index, (axis, key) in enumerate(path):
        effective_axis = Axis.DESCENDANT if index == 0 else axis
        if effective_axis is Axis.CHILD:
            parts.append("/" + re.escape(key))
        else:
            parts.append("(?:/[^/]+)*/" + re.escape(key))
    parts.append("$")
    return re.compile("".join(parts))


# -- LUI twig expansion ---------------------------------------------------------


@dataclass
class ExpandedTwig:
    """A predicate-free twig plus the index key of every twig node."""

    pattern: TreePattern
    keys: Dict[int, str] = field(default_factory=dict)

    def unique_keys(self) -> List[str]:
        """Distinct index keys of the twig, first-seen order."""
        return list(dict.fromkeys(self.keys.values()))


def expand_pattern_for_twig(pattern: TreePattern,
                            include_words: bool) -> ExpandedTwig:
    """Clone the pattern for structural matching against ID streams.

    Value predicates are translated structurally: an element's word
    predicate becomes an extra descendant leaf matched against the word
    key's stream (word IDs are the text nodes'); an attribute equality
    is folded into the attribute's value key.  Range predicates are
    dropped (§5.5).
    """
    keys: Dict[int, str] = {}
    root = _clone_for_twig(pattern.root, keys, include_words)
    return ExpandedTwig(pattern=TreePattern(root=root), keys=keys)


def _clone_for_twig(node: PatternNode, keys: Dict[int, str],
                    include_words: bool) -> PatternNode:
    """Copy ``node``'s subtree, filing each copy's key in ``keys``."""
    copy = PatternNode(label=node.label, is_attribute=node.is_attribute,
                       axis=node.axis)
    keys[id(copy)] = _node_key(node)
    for child in node.children:
        copy.children.append(_clone_for_twig(child, keys, include_words))
    if include_words:
        for word in _node_words(node):
            leaf = PatternNode(label=word, axis=Axis.DESCENDANT)
            keys[id(leaf)] = WORD_PREFIX + word
            copy.children.append(leaf)
    return copy


# -- outcomes ----------------------------------------------------------------------


@dataclass
class LookupOutcome:
    """Result of looking up one tree pattern."""

    uris: List[str]
    index_gets: int = 0
    rows_processed: int = 0
    keys_looked_up: int = 0

    @property
    def document_count(self) -> int:
        """Documents retrieved by index look-up (a Table 5 cell)."""
        return len(self.uris)


@dataclass
class QueryLookupOutcome:
    """Per-pattern outcomes for a whole (possibly value-joined) query."""

    per_pattern: List[LookupOutcome]

    @property
    def union_uris(self) -> List[str]:
        """Distinct URIs across all patterns, sorted."""
        seen: Dict[str, None] = {}
        for outcome in self.per_pattern:
            for uri in outcome.uris:
                seen.setdefault(uri, None)
        return sorted(seen)

    @property
    def total_document_ids(self) -> int:
        """Table 5 convention: "for queries featuring value joins,
        Table 5 sums the numbers of document IDs retrieved for each
        tree pattern"."""
        return sum(len(outcome.uris) for outcome in self.per_pattern)

    @property
    def index_gets(self) -> int:
        """Total billable index gets across patterns."""
        return sum(outcome.index_gets for outcome in self.per_pattern)

    @property
    def rows_processed(self) -> int:
        """Total plan rows across patterns."""
        return sum(outcome.rows_processed for outcome in self.per_pattern)


# -- planners ------------------------------------------------------------------------


class BaseLookup:
    """Shared query-level driver: §5.5 — look up each pattern separately."""

    #: Telemetry tracer, set by the query worker before each query so
    #: look-up phases nest under the worker's ``index-lookup`` span.
    tracer: Optional[Any] = None

    def __init__(self, store: IndexStore, include_words: bool = True) -> None:
        self._store = store
        self.include_words = include_words

    @property
    def store_cache(self) -> Optional[Any]:
        """The store's shared read cache, when one is attached.

        Query workers read its hit counter around a look-up to report
        per-query cache effectiveness; ``None`` for plain stores.
        """
        return getattr(self._store, "cache", None)

    def _once(self, table: str, keys: Sequence[str], gets: int,
              question: tuple, stats: PlanStats, compute: Any) -> Any:
        """``compute(stats)`` over the ``keys`` just read from ``table``,
        looked up once per set of cache entries: a read that billed
        nothing came whole from the store's cache, which — asked in the
        same simulation step — names the entries, and what was computed
        from those very entries (an immutable value and its per-operator
        row charges) is replayed.  Any other read computes as ever."""
        peek = getattr(self._store, "cache_ordinals", None)
        entries = peek(table, keys) if peek and not gets else None
        if entries is None:
            return compute(stats)

        def charged() -> tuple:
            fresh = PlanStats()
            return compute(fresh), fresh.operator_rows

        answer, charges = self._store.cache.answer(
            (question, entries), charged)
        for operator, rows in charges.items():
            stats.charge(operator, rows)
        return answer

    def lookup_pattern(self, pattern: TreePattern,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """URIs of documents possibly matching ``pattern``."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for subclasses

    def lookup_query(self, query: Query,
                     ) -> Generator[Any, Any, QueryLookupOutcome]:
        """Look up every tree pattern of ``query`` independently."""
        outcomes: List[LookupOutcome] = []
        for index, pattern in enumerate(query.patterns):
            with maybe_span(self.tracer, "pattern-lookup",
                            pattern=index) as span:
                outcome = yield from self.lookup_pattern(pattern)
                if span is not None:
                    span.attributes["documents"] = outcome.document_count
                    span.attributes["index_gets"] = outcome.index_gets
            outcomes.append(outcome)
        return QueryLookupOutcome(per_pattern=outcomes)


class LULookup(BaseLookup):
    """§5.1: look up every query key, intersect the URI sets."""

    def __init__(self, store: IndexStore, table: str,
                 include_words: bool = True) -> None:
        super().__init__(store, include_words)
        self._table = table

    def lookup_pattern(self, pattern: TreePattern,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """URIs of documents possibly matching ``pattern``."""
        keys = pattern_lookup_keys(pattern, self.include_words)
        data, gets = yield from self._store.read_keys(
            self._table, keys, "presence")
        stats = PlanStats()

        def intersect(stats: PlanStats) -> Tuple[str, ...]:
            uri_sets = [sorted(data.get(key, {})) for key in keys]
            return tuple(sorted(HashIntersect(stats).execute(uri_sets)))

        uris = self._once(self._table, keys, gets, ("LU", tuple(keys)),
                          stats, intersect)
        return LookupOutcome(uris=list(uris), index_gets=gets,
                             rows_processed=stats.rows_processed,
                             keys_looked_up=len(keys))


class LUPLookup(BaseLookup):
    """§5.2: per query path, filter the last key's data paths."""

    def __init__(self, store: IndexStore, table: str,
                 include_words: bool = True) -> None:
        super().__init__(store, include_words)
        self._table = table

    def lookup_pattern(self, pattern: TreePattern,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """URIs of documents possibly matching ``pattern``.

        Two query paths ending in the same last key (e.g. ``//a//b``
        and ``//c//b``) need the same index item, so each distinct key
        is read exactly once (the dedupe-audit invariant).  Stores that
        coalesce (:attr:`~repro.store.router.StoreRouter.
        coalesce_reads`) get all distinct keys as one batched read;
        plain stores are read key by key in first-seen order — the
        seed's exact request sequence when no key repeats.
        """
        paths = pattern_query_paths(pattern, self.include_words)
        stats = PlanStats()
        unique_keys = list(dict.fromkeys(path[-1][1] for path in paths))
        gets = 0
        if getattr(self._store, "coalesce_reads", False):
            data, gets = yield from self._store.read_keys(
                self._table, unique_keys, "paths")
        else:
            data = {}
            for last_key in unique_keys:
                payloads, requests = yield from self._store.read_key(
                    self._table, last_key, "paths")
                data[last_key] = payloads
                gets += requests

        def filter_paths(stats: PlanStats) -> Tuple[str, ...]:
            ordered = {key: sorted(payloads)
                       for key, payloads in data.items()}
            per_path_uris: List[List[str]] = []
            for path in paths:
                payloads = data.get(path[-1][1], {})
                # Data paths repeat from document to document: one
                # verdict per distinct string and look-up (a match
                # object is truthy).
                matches = lru_cache(maxsize=None)(
                    query_path_regex(path).match)
                matching: List[str] = []
                for uri in ordered.get(path[-1][1], ()):
                    data_paths = payloads[uri] or ()
                    stats.charge("path-filter", len(data_paths))
                    if any(map(matches, data_paths)):
                        matching.append(uri)
                per_path_uris.append(matching)
            return tuple(sorted(HashIntersect(stats).execute(per_path_uris)))

        uris = self._once(self._table, unique_keys, gets,
                          ("LUP", tuple(paths)), stats, filter_paths)
        return LookupOutcome(uris=list(uris), index_gets=gets,
                             rows_processed=stats.rows_processed,
                             keys_looked_up=len(paths))


class LUILookup(BaseLookup):
    """§5.3: retrieve ID streams per key, run the holistic twig join."""

    def __init__(self, store: IndexStore, table: str,
                 include_words: bool = True,
                 assume_sorted: bool = True) -> None:
        super().__init__(store, include_words)
        self._table = table
        #: When False, models an index that did NOT store IDs sorted:
        #: every stream pays an n·log2(n) sort charge before the join —
        #: the ablation for the §5.3 design decision.
        self.assume_sorted = assume_sorted

    def lookup_pattern(self, pattern: TreePattern,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """URIs of documents possibly matching ``pattern``."""
        twig = expand_pattern_for_twig(pattern, self.include_words)
        outcome = yield from self._twig_lookup(twig, reduce_to=None)
        return outcome

    def _twig_lookup(self, twig: ExpandedTwig,
                     reduce_to: Optional[Sequence[str]],
                     extra_stats: Optional[PlanStats] = None,
                     extra_gets: int = 0,
                     ) -> Generator[Any, Any, LookupOutcome]:
        keys = twig.unique_keys()
        # One flattened twig per look-up; a candidate only binds its
        # streams to the twig's positions.
        nodes, children = flatten_twig(twig.pattern)
        node_keys = tuple(twig.keys[id(node)] for node in nodes)

        def join(stats: PlanStats) -> Tuple[Tuple[str, ...], int]:
            """Matched URIs and candidate count over ``data``, read below."""
            by_key = data
            if reduce_to is not None:
                # 2LUPI reduction: R2^ai ⋉ R1(URI) for each key (§5.4).
                semi = SemiJoin(stats)
                by_key = {}
                for key in keys:
                    payloads = data.get(key, {})
                    kept = semi.execute(sorted(payloads), list(reduce_to),
                                        key=lambda uri: uri)
                    by_key[key] = {uri: payloads[uri] for uri in kept}

            # Candidate documents must contain every key at least once.
            uri_sets = [sorted(by_key.get(key, {})) for key in keys]
            candidates = HashIntersect(stats).execute(uri_sets)
            payloads = [by_key.get(key, {}) for key in node_keys]
            matched: List[str] = []
            for uri in sorted(candidates):
                streams = [by_uri[uri] for by_uri in payloads]
                if not self.assume_sorted:
                    # Ablation: pay for sorting each stream at look-up
                    # time (the §5.3 design avoids exactly this).
                    for position, ids in enumerate(streams):
                        length = len(ids)
                        if length > 1:
                            stats.charge("sort", length * max(
                                1, math.ceil(math.log2(length))))
                        streams[position] = ids.sorted_by_pre()
                # The plan-CPU charge only needs stream lengths, so it
                # costs no decode of a never-joined lazy block.
                if twig_exists(children, streams):
                    matched.append(uri)
                stats.charge("twig-join", sum(map(len, streams)))
            return tuple(matched), len(candidates)

        with maybe_span(self.tracer, "twig-join",
                        keys=len(keys)) as twig_span:
            data, gets = yield from self._store.read_keys(
                self._table, keys, "ids")
            stats = extra_stats or PlanStats()
            matched, candidates = self._once(
                self._table, keys, gets,
                ("twig", node_keys, children, self.assume_sorted,
                 None if reduce_to is None else tuple(reduce_to)),
                stats, join)
            if twig_span is not None:
                twig_span.attributes["candidates"] = candidates
        return LookupOutcome(uris=list(matched), index_gets=gets + extra_gets,
                             rows_processed=stats.rows_processed,
                             keys_looked_up=len(keys))


class TwoLUPILookup(LUILookup):
    """§5.4 / Figure 5: LUP pre-filter, then reduced LUI twig join."""

    def __init__(self, store: IndexStore, lup_table: str, lui_table: str,
                 include_words: bool = True,
                 reduction_enabled: bool = True,
                 assume_sorted: bool = True) -> None:
        super().__init__(store, lui_table, include_words, assume_sorted)
        self._lup = LUPLookup(store, lup_table, include_words)
        self.reduction_enabled = reduction_enabled

    def lookup_pattern(self, pattern: TreePattern,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """URIs of documents possibly matching ``pattern``."""
        with maybe_span(self.tracer, "lup-prefilter") as span:
            first = yield from self._lup.lookup_pattern(pattern)
            if span is not None:
                span.attributes["documents"] = first.document_count
        twig = expand_pattern_for_twig(pattern, self.include_words)
        stats = PlanStats()
        stats.charge("lup-phase", first.rows_processed)
        reduce_to = first.uris if self.reduction_enabled else None
        outcome = yield from self._twig_lookup(
            twig, reduce_to=reduce_to, extra_stats=stats,
            extra_gets=first.index_gets)
        return outcome
