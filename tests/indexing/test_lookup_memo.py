"""Looked up once: a fully-cached look-up replays its first outcome.

A planner whose read billed nothing asks the router which cache
entries it was served from and replays what was computed from those
very entries.  Pinned here, for every strategy on a sharded, cached
router: the replay is indistinguishable from a recomputation (URIs,
rows, per-operator charges, spans, cache counters) except that no join
runs; everything that replaces an entry — a repair write, an eviction,
an invalidation, an epoch bump, another tenant's namespace — makes the
next look-up compute again, and agree with a planner over a cache-less
router on the same tables; a read that missed anything stays out of
the table; callers cannot poison it; it is bounded and weighs nothing
against the byte budget.
"""

import pytest

from repro.cloud import CloudProvider
from repro.indexing import lookup_plans
from repro.indexing.mapper import DynamoIndexStore
from repro.indexing.registry import (ALL_STRATEGY_NAMES, all_strategies,
                                     strategy as strategy_named)
from repro.query.workload import workload
from repro.store import StoreConfig, StoreRouter
from repro.store.cache import ANSWER_MEMO_ENTRIES, IndexCache
from repro.xmldb.parser import parse_document

pytestmark = pytest.mark.store

SHARDS = 3
BUDGET = 4 << 20
STRATEGIES = list(ALL_STRATEGY_NAMES)
PATTERNS = [pattern for query in workload() for pattern in query.patterns]
#: Spans the planners open themselves (the rest are the route's).
PLANNER_SPANS = ("lup-prefilter", "twig-join")


class Probe:
    """What one look-up did, as a query worker and a trace would see it."""

    def __init__(self):
        self.opened = []       # planner-level PlanStats of the look-up
        self.twig_calls = 0
        self.answering = False

    def install(self, monkeypatch):
        probe = self

        class Recording(lookup_plans.PlanStats):
            def __init__(self):
                super().__init__()
                # The scratch stats an answer is first computed into is
                # replayed into the planner's: not a second account.
                if not probe.answering:
                    probe.opened.append(self)

        twig_exists, answer = lookup_plans.twig_exists, IndexCache.answer

        def counting_twig_exists(children, streams):
            probe.twig_calls += 1
            return twig_exists(children, streams)

        def flagged_answer(cache, question, compute):
            probe.answering = True
            try:
                return answer(cache, question, compute)
            finally:
                probe.answering = False

        monkeypatch.setattr(lookup_plans, "PlanStats", Recording)
        monkeypatch.setattr(lookup_plans, "twig_exists",
                            counting_twig_exists)
        monkeypatch.setattr(IndexCache, "answer", flagged_answer)
        return self


@pytest.fixture
def probe(monkeypatch):
    return Probe().install(monkeypatch)


class Deployment:
    """All four indexes in one DynamoDB behind a sharded, cached router
    — and, over the same tables, the cache-less router whose planners
    are the reference."""

    def __init__(self, documents, probe, cache_bytes=BUDGET):
        self.cloud = CloudProvider()
        self.probe = probe
        self.base = DynamoIndexStore(self.cloud.dynamodb, seed=2)
        self.cache = IndexCache(cache_bytes)
        self.config = StoreConfig(shards=SHARDS, cache_bytes=cache_bytes)
        self.router = StoreRouter(self.base, config=self.config,
                                  cache=self.cache,
                                  telemetry=self.cloud.telemetry)
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
        """A cache-less router over the same tables as ``router``."""
        router = router or self.router
        return StoreRouter(self.base, config=StoreConfig(shards=SHARDS),
                           epoch=router.epoch, tenant=router.tenant)

    def lookup(self, strategy, router=None):
        return strategy_named(strategy).make_lookup(
            router or self.router, self.tables[strategy])

    def run(self, lookup, pattern):
        """One look-up's outcome and everything observable about it."""
        probe, tracer = self.probe, self.cloud.telemetry.tracer
        lookup.tracer = tracer
        del probe.opened[:]
        probe.twig_calls = 0
        spans_from = len(tracer.spans)
        before = (self.cache.hits, self.cache.misses,
                  self.cache.answer_hits, self.cache.answer_misses)
        outcome = self.cloud.env.run_process(lookup.lookup_pattern(pattern))
        after = (self.cache.hits, self.cache.misses,
                 self.cache.answer_hits, self.cache.answer_misses)
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
        # is served by the same table: the cache owns it.
        other = deployment.run(deployment.lookup(strategy), pattern)

        assert cold["index_gets"] > 0 and cold["answer_misses"] == 0
        assert first["index_gets"] == 0 and first["misses"] == 0
        assert first["answer_misses"] > 0 and first["answer_hits"] == 0
        for repeat in (again, other):
            assert repeat["answer_misses"] == 0
            assert repeat["answer_hits"] == first["answer_misses"]
            assert repeat["twig_calls"] == 0
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
        assert first["twig_calls"] == expected["twig_calls"]
        joins_run += first["twig_calls"]
    # The columnar existence check is what LUI and 2LUPI replay.
    assert (joins_run > 0) == (strategy in ("LUI", "2LUPI"))


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
    budget = 256 * 1024 if event is _evict else BUDGET
    deployment = Deployment(small_corpus.documents, probe, cache_bytes=budget)
    original = small_corpus.documents[0].uri
    patterns = patterns_answered(deployment, strategy, original)
    assert patterns
    lookup = deployment.lookup(strategy)
    for pattern in patterns:
        deployment.run(lookup, pattern)
        assert deployment.run(lookup, pattern)["answer_misses"] > 0
        assert deployment.run(lookup, pattern)["answer_hits"] > 0

    event(deployment, small_corpus)

    reference = deployment.lookup(strategy, deployment.uncached())
    for pattern in patterns:
        expected = deployment.run(reference, pattern)
        if event is _repair:
            assert "zz-copy.xml" in expected["uris"]
        reread = deployment.run(lookup, pattern)
        refilled = deployment.run(lookup, pattern)
        replayed = deployment.run(lookup, pattern)
        # Nothing computed before the event is served after it.
        assert reread["index_gets"] > 0 and reread["answer_hits"] == 0
        assert refilled["index_gets"] == 0
        assert refilled["answer_misses"] > 0
        assert replayed["answer_misses"] == 0
        for served in (reread, refilled, replayed):
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
    bumped = StoreRouter(deployment.base, config=deployment.config,
                         cache=deployment.cache,
                         telemetry=deployment.cloud.telemetry,
                         epoch=deployment.router.epoch + 1)
    _repair(deployment, small_corpus, router=bumped)
    # Another tenant's namespace, holding the other half of the corpus.
    tenant = deployment.router.for_tenant("other")
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
            refilled = deployment.run(scoped, pattern)
            assert refilled["answer_misses"] > 0
            replayed = deployment.run(scoped, pattern)
            assert replayed["answer_misses"] == 0
            for served in (reread, refilled, replayed):
                assert computed(served) == computed(expected)
    # The original router still replays its own epoch's answers.
    for pattern in patterns:
        assert deployment.run(lookup, pattern)["answer_misses"] == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_partly_missed_read_stays_out_of_the_table(small_corpus, probe,
                                                     strategy):
    deployment = Deployment(small_corpus.documents, probe)
    lookup = deployment.lookup(strategy)
    cache = deployment.cache
    reference = deployment.lookup(strategy, deployment.uncached())
    for pattern in PATTERNS:
        deployment.run(lookup, pattern)
        deployment.run(lookup, pattern)
        # Drop the entry read last: the next read bills one get, so it
        # neither consults nor fills the table.
        tenant, table, key, epoch = next(reversed(cache._entries))
        cache.discard(table, key, epoch, tenant)
        answers = set(cache._answers)
        partly = deployment.run(lookup, pattern)
        assert partly["index_gets"] == partly["misses"] == 1
        assert partly["answer_misses"] == 0
        # 2LUPI asks two questions; its first read (LUP's) still hit.
        assert partly["answer_hits"] == (strategy == "2LUPI")
        assert set(cache._answers) == answers
        assert computed(partly) == computed(
            deployment.run(reference, pattern))
        # The re-read entry has a new ordinal: a new question.
        assert deployment.run(lookup, pattern)["answer_misses"] == 1


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
        # The maps a read hands out are copies too (the router's copy
        # protection): emptying them changes neither entry nor answer.
        for tenant, table, key, epoch in list(deployment.cache._entries):
            read(table, [key])[key].clear()
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
    cache = with_table.cache
    assert 0 < len(cache._answers) <= ANSWER_MEMO_ENTRIES
    remembered = cache.answer_misses

    # The same reads with nothing remembered: same bytes, same entries.
    without = Deployment(small_corpus.documents, probe)
    for strategy in STRATEGIES:
        lookup = without.lookup(strategy)
        for pattern in PATTERNS:
            for _ in range(3):
                without.cache._answers.clear()
                without.run(lookup, pattern)
    assert without.cache.answer_hits == 0
    assert with_table.cache.answer_hits > 0
    assert cache.current_bytes == without.cache.current_bytes
    assert cache.stats() == without.cache.stats()
    assert list(cache._entries) == list(without.cache._entries)

    # Past the bound the least recently asked answer goes first.
    for extra in range(ANSWER_MEMO_ENTRIES + 5):
        cache.answer(("extra", extra), lambda: (extra,))
    assert len(cache._answers) == ANSWER_MEMO_ENTRIES
    assert cache.answer_misses == remembered + ANSWER_MEMO_ENTRIES + 5
    assert ("extra", 4) not in cache._answers
    assert cache.answer(("extra", 5), lambda: None) == (5,)
