"""A replayed look-up is the look-up, whatever happened to the items.

Hypothesis drives two routers sharing one answer memo and one base store
— a cached 3-shard router and a passthrough one, each holding the same
corpus in its own content-addressed tables of one strategy — through
random sequences of look-ups (one of two q1-q10 patterns), corrupted items,
dropped partitions, scrub-style repairs, evictions under a budget
smaller than the working set, table invalidations and flips of the
cached router to a new epoch.  Damage lands on keys the patterns read.
After every step each look-up — both patterns through both routers —
must equal what a fresh planner computes over a fresh store with no
cache and no memo: URIs, rows and per-operator charges, or the same
error.

Damage is silent, so a cache keeps serving what it read before it; the
machine quarantines a damaged table's cache entries as the degradation
ladder does (``IndexCache.invalidate_table``).  What the property is
about lies below the cache: the store's payload views and the memo
keyed by their identities.  A failing sequence shrinks to a minimal one.
"""

import functools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from tests.indexing.test_lookup_memo import PATTERNS, STRATEGIES, Probe

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.errors import ReproError
from repro.indexing.checksums import CHECKSUM_ATTR
from repro.indexing.lookup_plans import pattern_plan
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import strategy as strategy_named
from repro.store import AnswerMemo, IndexCache, StoreConfig, StoreRouter
from repro.xmark import generate_corpus

pytestmark = pytest.mark.store

SHARDS = 3
#: Smaller than the working set of every strategy's tables together.
BUDGET = 16 * 1024
ROUTES = ("cached", "passthrough")
PICK = st.integers(min_value=0, max_value=255)
#: Which router, and which of the machine's two patterns (few enough
#: choices for answers to be replayed as well as computed).
LOOK_UP = {"route": st.sampled_from(ROUTES), "which": st.integers(0, 1)}


@functools.lru_cache(maxsize=None)
def _corpus():
    return generate_corpus(ScaleProfile(documents=6, seed=31))


def _observe(cloud, lookup, pattern):
    """A look-up's answer, rows and per-operator charges, or its error."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        probe = Probe().install(monkeypatch)
        try:
            outcome = cloud.env.run_process(lookup.lookup_pattern(pattern))
        except ReproError as error:  # damage surfaces as a typed error
            return ("raised", type(error).__name__)
        return (outcome.uris, outcome.rows_processed,
                [stats.operator_rows for stats in probe.opened])


class AnswerViewMachine(RuleBasedStateMachine):
    """Two routers over one memo, against fresh planners each step."""

    @initialize(strategy=st.sampled_from(STRATEGIES),
                patterns=st.lists(st.integers(0, len(PATTERNS) - 1),
                                  min_size=2, max_size=2))
    def deploy(self, strategy, patterns):
        self.strategy = strategy
        self.patterns = [PATTERNS[index] for index in patterns]
        self.cloud = CloudProvider()
        self.base = DynamoIndexStore(self.cloud.dynamodb, seed=2,
                                     range_key_mode="content")
        self.cache = IndexCache(BUDGET)
        self.memo = AnswerMemo()
        self.config = StoreConfig(shards=SHARDS, cache_bytes=BUDGET)
        self.routers = {
            "cached": StoreRouter(self.base, self.cloud.telemetry,
                                  config=self.config, cache=self.cache,
                                  answer_memo=self.memo),
            "passthrough": StoreRouter(self.base, self.cloud.telemetry,
                                       answer_memo=self.memo)}
        #: route -> logical table -> physical name.
        self.tables = {route: {
            logical: "{}-{}-{}".format(route[0], strategy, logical)
            for logical in strategy_named(strategy).logical_tables}
            for route in ROUTES}
        #: (route, logical table, URI) to write back on repair.
        self.damaged = set()
        for route in ROUTES:
            self._write(route, _corpus().documents, create=True)

    def _write(self, route, documents, create=False, only=None):
        """Index ``documents`` one batch each (so an item holds one
        document's posting of one key) through ``route``'s router."""
        router, tables = self.routers[route], self.tables[route]
        strategy = strategy_named(self.strategy)

        def scenario():
            for logical, physical in tables.items():
                if create:
                    router.create_table(physical)
                for document in documents:
                    if only is not None and (logical,
                                             document.uri) not in only:
                        continue
                    entries = strategy.extract(document)
                    if entries.get(logical):
                        yield from router.write_entries(
                            physical, entries[logical])
        self.cloud.env.run_process(scenario())

    def _check(self, route, which):
        """Look ``route``'s pattern ``which`` up first, then every
        pattern through every router, each against a fresh planner."""
        planner = strategy_named(self.strategy)
        tracer = self.cloud.telemetry.tracer
        for route, which in [(route, which)] + [
                (other, index) for other in ROUTES for index in (0, 1)]:
            router, tables = self.routers[route], self.tables[route]
            fresh = StoreRouter(
                DynamoIndexStore(self.cloud.dynamodb), self.cloud.telemetry,
                config=StoreConfig(shards=router.config.shards),
                epoch=router.epoch)
            pattern = self.patterns[which]
            served = _observe(self.cloud, planner.make_lookup(
                router, tables, tracer), pattern)
            expected = _observe(self.cloud, planner.make_lookup(
                fresh, tables, tracer), pattern)
            assert served == expected, (route, which)

    def _read_key(self, route, which, pick):
        """(logical table, shard table, key) of a key pattern ``which``
        reads from ``route``'s tables."""
        tables = self.tables[route]
        logical = sorted(tables)[pick % len(tables)]
        plan = pattern_plan(self.patterns[which], True)
        keys = {"lu": plan.lookup_keys, "lup": plan.path_keys,
                "lui": plan.twig_keys}[logical]
        key = keys[pick % len(keys)]
        return (logical, self.routers[route].shard_table_for(
            tables[logical], key), key)

    def _quarantine(self, route, logical):
        if route == "cached":
            self.cache.invalidate_table(self.tables[route][logical])

    # -- rules -------------------------------------------------------------

    @rule(**LOOK_UP)
    def look_up(self, route, which):
        self._check(route, which)

    @rule(pick=PICK, **LOOK_UP)
    def corrupt_an_item(self, pick, route, which):
        logical, table, key = self._read_key(route, which, pick)
        items = [item for item in self.cloud.dynamodb.table(
            table).all_items() if item.hash_key == key]
        if items:
            item = items[pick % len(items)]
            names = sorted(name for name, values in item.attributes.items()
                           if values and name != CHECKSUM_ATTR)
            if names:
                name = names[pick % len(names)]
                assert self.cloud.dynamodb.corrupt_attribute(
                    table, item.hash_key, item.range_key, name,
                    byte_index=pick, bit=pick)
                self.damaged.add((route, logical, name))
                self._quarantine(route, logical)
        self._check(route, which)

    @rule(pick=PICK, **LOOK_UP)
    def drop_a_partition(self, pick, route, which):
        logical, table, key = self._read_key(route, which, pick)
        for item in self.cloud.dynamodb.table(table).all_items():
            if item.hash_key == key:
                self.damaged.update(
                    (route, logical, name) for name in item.attributes
                    if name != CHECKSUM_ATTR)
        if self.cloud.dynamodb.drop_partition(table, key):
            self._quarantine(route, logical)
        self._check(route, which)

    @rule(**LOOK_UP)
    def scrub_repair(self, route, which):
        """Write every damaged document's postings back through its
        router, as the scrubber's repair does: content-addressed, so
        each item comes back as it was built, as a new object."""
        for damaged_route in ROUTES:
            only = {(logical, uri) for where, logical, uri in self.damaged
                    if where == damaged_route}
            if only:
                self._write(damaged_route, _corpus().documents, only=only)
        self.damaged.clear()
        self._check(route, which)

    @rule(**LOOK_UP)
    def evict(self, route, which):
        self.cache.put("filler", "k", 0, {"u": b"x" * (BUDGET - 128)})
        assert len(self.cache) == 1
        self._check(route, which)

    @rule(pick=PICK, **LOOK_UP)
    def invalidate_a_table(self, pick, route, which):
        tables = sorted(self.tables["cached"].values())
        self.cache.invalidate_table(tables[pick % len(tables)])
        self._check(route, which)

    @rule(**LOOK_UP)
    def flip_to_a_new_epoch(self, route, which):
        """The cached router moves to the next epoch over the same
        tables: the old epoch's entries are never served again."""
        old = self.routers["cached"]
        self.routers["cached"] = StoreRouter(
            self.base, self.cloud.telemetry, config=self.config,
            cache=self.cache, epoch=old.epoch + 1, answer_memo=self.memo)
        self._check(route, which)


AnswerViewMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestAnswerViewMachine = AnswerViewMachine.TestCase
