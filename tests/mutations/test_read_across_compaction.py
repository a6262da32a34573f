"""A live look-up that straddles a compaction flip reads one layer stack.

A look-up's base read may still be in flight when a compaction commits:
the new base holds the folded deltas, and they have left the chain.  A
read that merged the *old* base with the chain left after the fold would
lose the folded adds and resurrect the folded deletes.  Each test holds
the pre-flip base store's read reply until ``Compactor.run()`` has
committed, then checks the look-up against one started afterwards.
"""

import pytest

from tests.mutations.test_live import fresh_live, make_increment

from repro.engine.evaluator import evaluate_query
from repro.mutations.compactor import Compactor
from repro.query.workload import workload_query

pytestmark = pytest.mark.ingest


def _hold_reads(store, until):
    """Make ``store``'s reads wait for ``until`` before they reply."""
    for name in ("read_key", "read_keys"):
        read = getattr(store, name)

        def held(*args, _read=read):
            reply = yield from _read(*args)
            if not until.triggered:
                yield until
            return reply
        setattr(store, name, held)


def _straddled_lookup(warehouse, live, pattern):
    """URIs of a look-up whose base read is held across a compaction,
    and of one started after it."""
    env = warehouse.cloud.env
    committed = env.event()
    _hold_reads(live.base_store, committed)
    lookup = live.make_lookup(warehouse.telemetry.tracer)

    def compact():
        report = yield from Compactor(warehouse, live).run()
        assert report.committed
        committed.succeed()

    def scenario():
        reader = env.process(lookup.lookup_pattern(pattern))
        yield env.process(compact())
        outcome = yield reader
        return outcome.uris

    straddled = env.run_process(scenario())
    after = env.run_process(lookup.lookup_pattern(pattern)).uris
    return straddled, after


def _q6():
    query = workload_query("q6")
    return query, query.patterns[0]


def test_a_straddling_lookup_keeps_the_folded_adds():
    warehouse, live = fresh_live("LUI")
    increment = make_increment(1)
    warehouse.add_documents(live, increment, loaders=2)
    query, pattern = _q6()
    added = {document.uri for document in increment.documents
             if evaluate_query(query, [document])}
    assert added

    straddled, after = _straddled_lookup(warehouse, live, pattern)

    assert added <= set(after)
    assert straddled == after


def test_a_straddling_lookup_does_not_resurrect_folded_deletes():
    warehouse, live = fresh_live("LUI")
    query, pattern = _q6()
    victim = next(document.uri for document in warehouse.corpus.documents
                  if evaluate_query(query, [document]))
    warehouse.delete_documents(live, [victim])

    straddled, after = _straddled_lookup(warehouse, live, pattern)

    assert victim not in after
    assert straddled == after
