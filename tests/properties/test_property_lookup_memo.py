"""Property-based tests: a remembered look-up is the look-up.

Random interleavings of look-ups (q1-q10's patterns x four strategies x
two tenants), repair writes, evictions and table invalidations against
one shared :class:`~repro.store.cache.IndexCache` under a budget that
may or may not hold the working set.  At every step the planner over
the cached router must agree with a planner over a cache-less router on
the same tables — URIs, rows, per-operator charges — bill exactly its
misses, and touch the answer table once per read that billed nothing
and never otherwise; and playing one interleaving twice must leave the
cache's counters, entries and answers identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.indexing.test_lookup_memo import (PATTERNS, STRATEGIES,
                                             Deployment, Probe, computed)

from repro.config import ScaleProfile
from repro.xmark import generate_corpus
from repro.xmldb.parser import parse_document

pytestmark = pytest.mark.store

TENANTS = ("", "other")
BUDGETS = (16 * 1024, 96 * 1024, 4 << 20)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=16, seed=31))


@st.composite
def interleavings(draw):
    """Steps over one strategy and two patterns, look-ups three times as
    likely as the rest together — an answer is remembered on the third
    look-up in a row, so a wider choice would rarely replay one."""
    strategy = draw(st.sampled_from(STRATEGIES))
    patterns = draw(st.lists(st.integers(0, len(PATTERNS) - 1),
                             min_size=2, max_size=2))
    look_up = st.tuples(st.just("look-up"), st.sampled_from(TENANTS),
                        st.just(strategy), st.sampled_from(patterns))
    return draw(st.lists(st.one_of(
        look_up, look_up, look_up, look_up, look_up, look_up,
        st.tuples(st.just("repair"), st.sampled_from(TENANTS),
                  st.integers(0, 15)),
        st.tuples(st.just("evict")),
        st.tuples(st.just("invalidate"), st.just(strategy)),
    ), min_size=1, max_size=40))


def play(corpus, probe, budget, interleaving):
    """Apply the steps to a fresh deployment, checking every look-up;
    what the cache ends up holding and counting."""
    documents = corpus.documents
    deployment = Deployment(documents[0::2], probe, cache_bytes=budget)
    cache = deployment.cache
    routers = {"": deployment.router,
               "other": deployment.router.for_tenant("other")}
    deployment.load(routers["other"], documents[1::2])
    copies, answered = 0, []
    for step in interleaving:
        if step[0] == "look-up":
            _, tenant, strategy, index = step
            router, pattern = routers[tenant], PATTERNS[index]
            expected = deployment.run(deployment.lookup(
                strategy, deployment.uncached(router)), pattern)
            served = deployment.run(
                deployment.lookup(strategy, router), pattern)
            assert computed(served) == computed(expected), step
            answered = expected["uris"]
            assert served["index_gets"] == served["misses"]
            assert served["index_gets"] <= expected["index_gets"]
            free_reads = sum(
                name == "store.read" and not attributes["billed_gets"]
                for name, attributes in served["spans"])
            assert served["answer_hits"] + served["answer_misses"] == \
                free_reads, step
        elif step[0] == "repair":
            _, tenant, which = step
            # A copy of a document the last look-up returned, if any:
            # the write that makes a remembered answer stale.
            copies += 1
            original = answered[0] if answered and "copy" not in \
                answered[0] else documents[which].uri
            deployment.load(routers[tenant], [parse_document(
                corpus.data[original], "zz-copy-{}.xml".format(copies))])
        elif step[0] == "evict":
            cache.put("filler", "k", 0, {"u": b"x" * (budget - 128)})
        else:
            cache.invalidate_tables(deployment.tables[step[1]].values())
    assert cache.current_bytes == sum(
        weight for _, weight, _ in cache._entries.values()) <= budget
    return (cache.stats(), cache.answer_hits, cache.answer_misses,
            list(cache._entries), list(cache._answers))


@given(st.sampled_from(BUDGETS), interleavings())
@settings(max_examples=25, deadline=None)
def test_a_remembered_look_up_is_the_look_up(corpus, budget, interleaving):
    with pytest.MonkeyPatch.context() as monkeypatch:
        probe = Probe().install(monkeypatch)
        first = play(corpus, probe, budget, interleaving)
        assert play(corpus, probe, budget, interleaving) == first
