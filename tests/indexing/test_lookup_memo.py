"""Looked up once: a look-up over unchanged payload views replays.

A backend store hands each key's payload map out as a read-only view
that keeps its identity while the stored items it was merged from do,
and a planner over a store with an answer memo replays what was
computed from those very views.  Pinned here, for every strategy on a
sharded, cached router: the replay is indistinguishable from a
recomputation (URIs, rows, per-operator charges, spans, cache counters)
except that no join runs, whether the read was a cache hit, a miss or
partly both; only a write that changes the items — a repair, another
epoch's data, another tenant's tables — makes the next look-up compute
again, while an eviction or an invalidation re-reads the same views and
replays; every answer agrees with a planner over a cache-less router
with no memo on the same tables; callers cannot poison it; the memo is
bounded and weighs nothing against the byte budget.
"""

import pytest

from repro.cloud import CloudProvider
from repro.indexing import lookup_plans
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import (ALL_STRATEGY_NAMES, all_strategies,
                                     strategy as strategy_named)
from repro.query.workload import workload
from repro.store import AnswerMemo, IndexCache, StoreRouter
from repro.store.cache import ANSWER_MEMO_ENTRIES
from repro.xmldb.parser import parse_document

pytestmark = pytest.mark.store

SHARDS = 3
BUDGET = 4 << 20
STRATEGIES = list(ALL_STRATEGY_NAMES)
PATTERNS = [pattern for query in workload() for pattern in query.patterns]
#: Spans the planners open themselves (the rest are the route's).
PLANNER_SPANS = ("lup-prefilter", "twig-join")


def questions(strategy):
    """Answers one look-up asks for (2LUPI: its LUP pre-filter's too)."""
    return 2 if strategy == "2LUPI" else 1


class Probe:
    """What one look-up did, as a query worker and a trace would see it."""

    def __init__(self):
        self.opened = []       # planner-level PlanStats of the look-up
        self.twig_calls = 0

    def install(self, monkeypatch):
        probe = self

        class Recording(lookup_plans.PlanStats):
            def __init__(self):
                super().__init__()
                probe.opened.append(self)

        twig_exists = lookup_plans.twig_exists

        def counting_twig_exists(children, streams):
            probe.twig_calls += 1
            return twig_exists(children, streams)

        monkeypatch.setattr(lookup_plans, "PlanStats", Recording)
        monkeypatch.setattr(lookup_plans, "twig_exists",
                            counting_twig_exists)
        return self


@pytest.fixture
def probe(monkeypatch):
    return Probe().install(monkeypatch)


class Deployment:
    """All four indexes in one DynamoDB behind a sharded, cached router
    carrying an answer memo — and, over the same tables, the cache-less
    router without one whose planners are the reference."""

    def __init__(self, documents, probe, cache_bytes=BUDGET):
        self.cloud = CloudProvider()
        self.probe = probe
        self.base = DynamoIndexStore(self.cloud.dynamodb, seed=2)
        self.cache = IndexCache(cache_bytes)
        self.memo = AnswerMemo()
        self.router = StoreRouter(self.base, shards=SHARDS,
                                  cache=self.cache,
                                  telemetry=self.cloud.telemetry,
                                  answer_memo=self.memo)
        self.tables = {
            strategy.name: {logical: "{}-{}".format(strategy.name, logical)
                            for logical in strategy.logical_tables}
            for strategy in all_strategies()}
        self.load(self.router, documents)

    def load(self, router, documents):
        """Fill every index (created on first use) through ``router``."""
        def scenario():
            for strategy in all_strategies():
                tables = self.tables[strategy.name]
                for physical in tables.values():
                    if router.shard_tables(physical)[0] not in \
                            self.cloud.dynamodb.table_names():
                        router.create_table(physical)
                for document in documents:
                    for logical, entries in strategy.extract(
                            document).items():
                        if entries:
                            yield from router.write_entries(
                                tables[logical], entries)
        self.cloud.env.run_process(scenario())

    def uncached(self, router=None):
        """A cache-less router without a memo over ``router``'s tables,
        reading through a fresh store (no views held)."""
        router = router or self.router
        return StoreRouter(
            DynamoIndexStore(self.cloud.dynamodb), self.cloud.telemetry,
            shards=SHARDS, epoch=router.epoch,
            tenant=router.tenant)

    def lookup(self, strategy, router=None):
        return strategy_named(strategy).make_lookup(
            router or self.router, self.tables[strategy],
            self.cloud.telemetry.tracer)

    def run(self, lookup, pattern):
        """One look-up's outcome and everything observable about it."""
        probe, tracer = self.probe, self.cloud.telemetry.tracer
        del probe.opened[:]
        probe.twig_calls = 0
        spans_from = len(tracer.spans)
        before = (self.cache.hits, self.cache.misses,
                  self.memo.hits, self.memo.misses)
        outcome = self.cloud.env.run_process(lookup.lookup_pattern(pattern))
        after = (self.cache.hits, self.cache.misses,
                 self.memo.hits, self.memo.misses)
        spans = [(span.name, dict(span.attributes))
                 for span in tracer.spans[spans_from:]]
        return {
            "uris": outcome.uris,
            "documents": outcome.document_count,
            "rows_processed": outcome.rows_processed,
            "keys_looked_up": outcome.keys_looked_up,
            "index_gets": outcome.index_gets,
            "operator_rows": [stats.operator_rows
                              for stats in probe.opened],
            "spans": spans,
            "planner_spans": [span for span in spans
                              if span[0] in PLANNER_SPANS],
            "twig_calls": probe.twig_calls,
            "hits": after[0] - before[0], "misses": after[1] - before[1],
            "answer_hits": after[2] - before[2],
            "answer_misses": after[3] - before[3],
        }


#: What a planner computes, whatever the route its data took.
COMPUTED = ("uris", "documents", "rows_processed", "keys_looked_up",
            "operator_rows", "planner_spans")


def computed(observed):
    return {name: observed[name] for name in COMPUTED}


def matching_copy(corpus, uri="zz-copy.xml"):
    """The corpus's first document again, under a URI that sorts last:
    indexing it adds one URI to every answer its original is in."""
    original = corpus.documents[0]
    return parse_document(corpus.data[original.uri], uri)


def patterns_answered(deployment, strategy, uri):
    """Patterns whose look-up returns ``uri`` (so a copy changes them)."""
    lookup = deployment.lookup(strategy, deployment.uncached())
    return [pattern for pattern in PATTERNS
            if uri in deployment.run(lookup, pattern)["uris"]]


def assert_replayed(observed, strategy):
    """Every question of the look-up was answered from the memo."""
    assert observed["answer_misses"] == 0
    assert observed["answer_hits"] == questions(strategy)
    assert observed["twig_calls"] == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_repeat_replays_the_first_outcome(small_corpus, probe, strategy):
    deployment = Deployment(small_corpus.documents, probe)
    lookup = deployment.lookup(strategy)
    reference = deployment.lookup(strategy, deployment.uncached())
    joins_run = 0
    for pattern in PATTERNS:
        deployment.cache.invalidate_all()  # patterns share keys
        expected = deployment.run(reference, pattern)
        cold = deployment.run(lookup, pattern)
        first = deployment.run(lookup, pattern)
        again = deployment.run(lookup, pattern)
        # A fresh worker's planner (``run_query`` builds one per call)
        # is served by the same memo: the router carries it.
        other = deployment.run(deployment.lookup(strategy), pattern)

        # The cold read misses every key and is billed for it; it asks
        # the memo all the same (a pattern met before replays here).
        assert cold["index_gets"] > 0 and cold["hits"] == 0
        assert cold["answer_hits"] + cold["answer_misses"] == \
            questions(strategy)
        if not cold["answer_hits"]:
            assert cold["twig_calls"] == expected["twig_calls"]
        joins_run += cold["twig_calls"]
        assert first["index_gets"] == 0 and first["misses"] == 0
        for repeat in (first, again, other):
            assert_replayed(repeat, strategy)
            # Field by field the same look-up, store.read spans and
            # cache traffic (hits +k, misses +0) included.
            for name in COMPUTED + ("spans", "index_gets", "hits",
                                    "misses"):
                assert repeat[name] == first[name], name
        assert first["hits"] == sum(
            attributes["keys"] for name, attributes in first["spans"]
            if name == "store.read")
        for served in (cold, first, again):
            assert computed(served) == computed(expected)
    # The columnar existence check is what LUI and 2LUPI replay.
    assert (joins_run > 0) == (strategy in ("LUI", "2LUPI"))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_repeat_over_unchanged_items_replays_after_eviction(
        small_corpus, probe, strategy):
    """An evicted key is read again, billed, and handed out as the very
    view it was before — the store kept it — so the look-up replays
    with ``twig_exists`` never called."""
    deployment = Deployment(small_corpus.documents, probe)
    lookup = deployment.lookup(strategy)
    reference = deployment.lookup(strategy, deployment.uncached())
    for pattern in PATTERNS:
        first = deployment.run(lookup, pattern)
        _evict(deployment, small_corpus)
        reread = deployment.run(lookup, pattern)
        assert reread["index_gets"] > 0 and reread["hits"] == 0
        assert_replayed(reread, strategy)
        assert computed(reread) == computed(first) == computed(
            deployment.run(reference, pattern))


def _repair(deployment, corpus, router=None):
    """Index a copy of a document through the cached router."""
    deployment.load(router or deployment.router,
                    [matching_copy(corpus)])


def _evict(deployment, corpus):
    """Push every entry out with one filler as big as the budget."""
    cache = deployment.cache
    filler = {"u": b"x" * (cache.max_bytes - 128)}
    cache.put("filler", "k", 0, filler)
    assert cache.evictions > 0 and len(cache) == 1


def _invalidate_tables(deployment, corpus):
    deployment.cache.invalidate_tables(
        [table for tables in deployment.tables.values()
         for table in tables.values()])


def _invalidate_all(deployment, corpus):
    deployment.cache.invalidate_all()


@pytest.mark.parametrize("event", [_repair, _evict, _invalidate_tables,
                                   _invalidate_all])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_replaced_entry_is_looked_up_again(small_corpus, probe, strategy,
                                             event):
    """Every event makes the next look-up read its keys again; only a
    write that changed the items (the repair) makes it compute again."""
    budget = 256 * 1024 if event is _evict else BUDGET
    deployment = Deployment(small_corpus.documents, probe, cache_bytes=budget)
    original = small_corpus.documents[0].uri
    patterns = patterns_answered(deployment, strategy, original)
    assert patterns
    lookup = deployment.lookup(strategy)
    for pattern in patterns:
        deployment.run(lookup, pattern)
        assert_replayed(deployment.run(lookup, pattern), strategy)

    event(deployment, small_corpus)

    reference = deployment.lookup(strategy, deployment.uncached())
    for pattern in patterns:
        expected = deployment.run(reference, pattern)
        reread = deployment.run(lookup, pattern)
        again = deployment.run(lookup, pattern)
        assert reread["index_gets"] > 0
        if event is _repair:
            # Nothing computed before the write is served after it.
            assert "zz-copy.xml" in expected["uris"]
            assert reread["answer_hits"] == 0
            assert reread["answer_misses"] == questions(strategy)
        else:
            # The same items, so the same views: a replay.
            assert_replayed(reread, strategy)
        assert again["index_gets"] == 0
        assert_replayed(again, strategy)
        for served in (reread, again):
            assert computed(served) == computed(expected)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_another_epoch_or_tenant_is_another_question(small_corpus, probe,
                                                     strategy):
    deployment = Deployment(small_corpus.documents, probe)
    original = small_corpus.documents[0].uri
    patterns = patterns_answered(deployment, strategy, original)
    lookup = deployment.lookup(strategy)
    for pattern in patterns:
        for _ in range(3):
            before = deployment.run(lookup, pattern)
        assert before["answer_hits"] > 0 and original in before["uris"]

    # An epoch bump over the same tables whose data then moves on: the
    # old epoch's entries (and answers) are still cached, never served.
    bumped = StoreRouter(deployment.base, shards=SHARDS,
                         cache=deployment.cache,
                         telemetry=deployment.cloud.telemetry,
                         epoch=deployment.router.epoch + 1,
                         answer_memo=deployment.memo)
    _repair(deployment, small_corpus, router=bumped)
    # Another tenant's namespace, holding the other half of the corpus.
    tenant = deployment.router.for_tenant("other")
    assert tenant.answer_memo is deployment.memo
    deployment.load(tenant, small_corpus.documents[1::2])

    for router, added, absent in ((bumped, "zz-copy.xml", None),
                                  (tenant, None, original)):
        scoped = deployment.lookup(strategy, router)
        reference = deployment.lookup(strategy, deployment.uncached(router))
        for pattern in patterns:
            expected = deployment.run(reference, pattern)
            assert added is None or added in expected["uris"]
            assert absent not in expected["uris"]
            reread = deployment.run(scoped, pattern)
            assert reread["index_gets"] > 0 and reread["answer_hits"] == 0
            replayed = deployment.run(scoped, pattern)
            assert_replayed(replayed, strategy)
            for served in (reread, replayed):
                assert computed(served) == computed(expected)
    # The original router still replays its own epoch's answers.
    for pattern in patterns:
        assert_replayed(deployment.run(lookup, pattern), strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_partly_missed_read_stays_out_of_the_table(small_corpus, probe,
                                                     strategy):
    """A read that hit some keys and missed one over unchanged items is
    billed its miss and replays: it adds nothing to the memo."""
    deployment = Deployment(small_corpus.documents, probe)
    lookup = deployment.lookup(strategy)
    cache, memo = deployment.cache, deployment.memo
    reference = deployment.lookup(strategy, deployment.uncached())
    for pattern in PATTERNS:
        deployment.run(lookup, pattern)
        deployment.run(lookup, pattern)
        # Drop the entry read last: the next read bills one get.
        tenant, table, key, epoch = next(reversed(cache._entries))
        cache.discard(table, key, epoch, tenant)
        answers = set(memo._answers)
        partly = deployment.run(lookup, pattern)
        assert partly["index_gets"] == partly["misses"] == 1
        assert_replayed(partly, strategy)
        assert set(memo._answers) == answers
        assert computed(partly) == computed(
            deployment.run(reference, pattern))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_callers_cannot_poison_an_answer(small_corpus, probe, strategy):
    deployment = Deployment(small_corpus.documents, probe)
    lookup = deployment.lookup(strategy)

    def read(table, keys):
        def scenario():
            return (yield from deployment.router.read_keys(
                table, keys, "presence"))
        return deployment.cloud.env.run_process(scenario())[0]

    for pattern in PATTERNS:
        deployment.run(lookup, pattern)
        first = deployment.run(lookup, pattern)
        expected = list(first["uris"])
        first["uris"].append("poison.xml")
        del first["uris"][:1]
        # The maps a read hands out are the entries themselves, and
        # they refuse mutation: nothing a caller does reaches an answer.
        for tenant, table, key, epoch in list(deployment.cache._entries):
            with pytest.raises(TypeError):
                read(table, [key])[key]["poison.xml"] = None
        again = deployment.run(lookup, pattern)
        assert again["uris"] == expected
        assert again["uris"] is not first["uris"]
        again["operator_rows"][0]["intersect"] = -1
        assert deployment.run(lookup, pattern)["operator_rows"][0][
            "intersect"] >= 0


def test_the_table_is_bounded_and_outside_the_byte_budget(small_corpus,
                                                          probe):
    with_table = Deployment(small_corpus.documents, probe)
    for strategy in STRATEGIES:
        lookup = with_table.lookup(strategy)
        for pattern in PATTERNS:
            for _ in range(3):
                with_table.run(lookup, pattern)
    memo, cache = with_table.memo, with_table.cache
    assert 0 < len(memo) <= ANSWER_MEMO_ENTRIES
    assert memo.hits > 0
    remembered = memo.misses

    # The same reads through a router with no memo: same bytes, same
    # entries.
    without = Deployment(small_corpus.documents, probe)
    without.router.answer_memo = None
    for strategy in STRATEGIES:
        lookup = without.lookup(strategy)
        for pattern in PATTERNS:
            for _ in range(3):
                without.run(lookup, pattern)
    assert without.memo.hits == without.memo.misses == 0
    assert cache.current_bytes == without.cache.current_bytes
    assert cache.stats() == without.cache.stats()
    assert list(cache._entries) == list(without.cache._entries)

    # Past the bound the least recently asked answer goes first.
    for extra in range(ANSWER_MEMO_ENTRIES + 5):
        memo.put(("extra", extra), (extra,))
    assert len(memo) == ANSWER_MEMO_ENTRIES
    assert memo.misses == remembered + ANSWER_MEMO_ENTRIES + 5
    assert memo.get(("extra", 4)) is None
    assert memo.get(("extra", 5)) == (5,)
