"""Graceful query degradation over suspect or missing index tables.

A :class:`DegradedIndexChain` duck-types a built index for the query
pipeline, but its look-up walks a *fallback chain* ordered by strategy
rank (2LUPI → LUI/LUP → LU) and lands on a full S3 scan when no index
is usable.  A candidate is passed over when

- the health registry marks any of its tables suspect or missing (a
  scrub found damage that is not repaired yet), or
- the look-up itself trips on damage: a checksum mismatch
  (:class:`~repro.errors.IntegrityError`), an undecodable payload, or a
  dropped table.

Every downgrade is metered under the cost-invisible ``consistency``
pseudo-service and counted in the health registry, so monitoring and
the cost model both show what degraded mode actually cost — the full
scan's extra S3 traffic is billed by S3 itself, exactly like the
paper's no-index baseline.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Generator, List, Optional, Sequence

from repro.cloud.provider import CloudProvider
from repro.errors import ConfigError, EncodingError, IntegrityError, \
    NoSuchTable, RegionUnavailable
from repro.indexing.lookup_plans import BaseLookup, LookupOutcome

#: Pseudo-service under which downgrades are metered (no price book
#: entry: the *consequences* — extra S3 gets — carry the cost).
CONSISTENCY_SERVICE = "consistency"

#: Resolution label for the last-resort full scan.
FULL_SCAN = "s3-scan"

HEALTH_STATES = ("healthy", "suspect", "missing")


class HealthRegistry:
    """Table health as observed by scrubs and failed reads."""

    def __init__(self) -> None:
        self._states: Dict[str, str] = {}
        #: Downgrades per resolution actually used after falling back.
        self.downgrades: Counter = Counter()

    def mark(self, physical_table: str, state: str) -> None:
        """Set one table's state; "healthy" clears the record."""
        if state not in HEALTH_STATES:
            raise ConfigError("unknown health state {!r}".format(state))
        if state == "healthy":
            self._states.pop(physical_table, None)
        else:
            self._states[physical_table] = state

    def status(self, physical_table: str) -> str:
        """The table's state (unknown tables are healthy)."""
        return self._states.get(physical_table, "healthy")

    def usable(self, physical_tables: Sequence[str]) -> bool:
        """Whether every table of a candidate index is healthy."""
        return all(self.status(t) == "healthy" for t in physical_tables)

    def suspect_tables(self) -> Dict[str, str]:
        """All non-healthy tables and their states, sorted."""
        return dict(sorted(self._states.items()))


class DegradingLookup(BaseLookup):
    """Per-pattern fallback across candidate indexes, then a full scan."""

    def __init__(self, cloud: CloudProvider,
                 candidates: List[Any],  # BuiltIndex-shaped handles
                 all_uris: Sequence[str],
                 health: HealthRegistry, tracer: Any) -> None:
        include_words = (candidates[0].strategy.include_words
                         if candidates else True)
        super().__init__(store=None, tracer=tracer,
                         include_words=include_words)
        self._cloud = cloud
        self._candidates = list(candidates)
        self._all_uris = list(all_uris)
        self._health = health
        #: Resolution of the most recent pattern look-up: a strategy
        #: name, or :data:`FULL_SCAN`.  The query worker reports it.
        self.last_resolution: str = ""
        #: Every resolution used during the current query.
        self.resolutions_used: List[str] = []

    @property
    def store_cache(self) -> Optional[Any]:
        """The chain's shared read cache (every candidate store of one
        warehouse holds the same cache object), or ``None``."""
        for built in self._candidates:
            if built.store.cache is not None:
                return built.store.cache
        return None

    def _note_downgrade(self, skipped: str, reason: str) -> None:
        self._cloud.meter.record(
            self._cloud.env.now, CONSISTENCY_SERVICE,
            "downgrade:{}:{}".format(skipped, reason))

    def lookup_pattern(self, pattern: Any,
                       ) -> Generator[Any, Any, LookupOutcome]:
        """Try each candidate in rank order; full-scan as a last resort."""
        for built in self._candidates:
            name = built.strategy.name
            tables = built.physical_tables
            if not self._health.usable(tables):
                self._note_downgrade(name, "health")
                continue
            lookup = built.make_lookup(self.tracer)
            try:
                outcome = yield from lookup.lookup_pattern(pattern)
            except RegionUnavailable:
                # The index's region is blacked out.  Unlike damage this
                # is transient and table-independent, so no health mark:
                # a sticky "suspect" would outlive the outage and keep
                # degrading queries after failback.
                self._note_downgrade(name, "region-outage")
                continue
            except NoSuchTable:
                for table in tables:
                    self._health.mark(table, "missing")
                self._note_downgrade(name, "missing-table")
                continue
            except (IntegrityError, EncodingError):
                # Damage discovered mid-read: quarantine the index and
                # fall through; the scrubber will repair it.  Cached
                # reads of the quarantined tables are dropped so the
                # post-repair index is re-read, never masked by
                # pre-damage entries.
                cache = built.store.cache
                for table in tables:
                    self._health.mark(table, "suspect")
                    if cache is not None:
                        cache.invalidate_table(table)
                self._note_downgrade(name, "integrity")
                continue
            self._resolve(name)
            return outcome
        # Nothing usable: answer from the full corpus, like the paper's
        # no-index baseline — correct (a superset the evaluator filters),
        # just slower and billed accordingly.
        self._resolve(FULL_SCAN)
        return LookupOutcome(uris=sorted(self._all_uris), index_gets=0,
                             rows_processed=0, keys_looked_up=0)

    def _resolve(self, name: str) -> None:
        self.last_resolution = name
        self.resolutions_used.append(name)
        if (self._candidates
                and name != self._candidates[0].strategy.name):
            self._health.downgrades[name] += 1
            self._cloud.telemetry.counter(
                "downgrades_total",
                "Pattern look-ups resolved below the preferred index.",
                ("resolution",)).inc(resolution=name)

    def lookup_query(self, query: Any) -> Generator[Any, Any, Any]:
        """Per-query driver; resets the resolution trail first."""
        self.resolutions_used = []
        result = yield from BaseLookup.lookup_query(self, query)
        return result

    @property
    def query_resolution(self) -> str:
        """The query-level resolution: one name, or "mixed"."""
        used = list(dict.fromkeys(self.resolutions_used))
        if not used:
            return ""
        return used[0] if len(used) == 1 else "mixed"


class DegradedIndexChain:
    """Duck-types a built index whose look-ups degrade gracefully.

    Candidates are ordered by
    :attr:`~repro.indexing.base.IndexingStrategy.fallback_rank`
    (highest first); read verification is switched on for every
    candidate store so silent corruption surfaces as a fallback rather
    than a wrong answer.
    """

    def __init__(self, cloud: CloudProvider,
                 indexes: Sequence[Any],  # BuiltIndex handles
                 all_uris: Sequence[str],
                 health: Optional[HealthRegistry] = None) -> None:
        if not indexes:
            raise ConfigError("a degraded chain needs at least one index")
        self._cloud = cloud
        self._candidates = sorted(
            indexes, key=lambda built: -built.strategy.fallback_rank)
        self._all_uris = list(all_uris)
        self.health = health if health is not None else HealthRegistry()
        for built in self._candidates:
            built.store.verify_reads = True

    @property
    def strategy(self):
        """The preferred (highest-ranked) candidate's strategy."""
        return self._candidates[0].strategy

    @property
    def candidates(self) -> List[Any]:
        """The fallback chain, best first."""
        return list(self._candidates)

    @property
    def physical_tables(self) -> List[str]:
        """All physical tables across the chain."""
        return [table for built in self._candidates
                for table in built.physical_tables]

    def make_lookup(self, tracer: Any) -> DegradingLookup:
        """A fresh degrading look-up over the chain."""
        return DegradingLookup(self._cloud, self._candidates,
                               self._all_uris, self.health, tracer)
