"""The live-mutation contract as a state machine against a dict model.

Hypothesis drives one :class:`~repro.mutations.live.LiveIndex` through
random sequences of adds (fresh URIs and re-adds of deleted ones),
deletes, updates, compactions (whole, or interrupted after one unit and
resumed by a later one), queries and deletes published beside a served
query, beside a plain ``{uri: bytes}`` model of what the corpus should
now be.  After every step:

* the step's query answers exactly what ``evaluate_query`` answers over
  the model (a query served beside a delete, over the model before or
  after it);
* every look-up of its patterns returns a superset of the model's
  matches and no URI the model does not hold — a deleted document never
  comes back;
* the step's kernel runs left nothing that only a collector pass could
  free (``tests/census.py``), since the kernel pauses the collector
  while it steps.

A failing sequence shrinks to a minimal one.
"""

import functools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from tests.census import census
from tests.warehouse.test_priced_once import _corpus

from repro.engine.evaluator import evaluate_query, pattern_matches
from repro.mutations import mutation_feed
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.warehouse.warehouse import RESULTS_BUCKET
from repro.xmark.corpus import Corpus
from repro.xmldb.parser import parse_document

pytestmark = pytest.mark.ingest

STRATEGIES = ("LU", "LUP", "LUI", "2LUPI")
QUERIES = st.sampled_from(["q{}".format(n) for n in range(1, 11)])
#: Picks one of a sorted candidate list, modulo its length.
PICK = st.integers(min_value=0, max_value=63)
DOCUMENTS = 6
#: Simulated seconds from a served query's traffic start to the delete
#: beside it; 0.18 s is where a look-up and its fetch straddle the delete.
DELETE_OFFSETS = st.sampled_from([0.0, 0.05, 0.1, 0.18, 0.3])


@functools.lru_cache(maxsize=None)
def _contents():
    """(the base corpus as ``{uri: bytes}``, a pool of other documents'
    bytes that adds and updates draw from)."""
    base = _corpus(seed=31, documents=DOCUMENTS)
    pool = _corpus(seed=7031, documents=DOCUMENTS)
    return dict(base.data), tuple(pool.data.values())


def _as_corpus(data):
    return Corpus(documents=[parse_document(payload, uri)
                             for uri, payload in data.items()],
                  data=dict(data))


def _expected_lines(query, model):
    """The rows a query worker stores for ``query`` over ``model``, one
    per line, sorted."""
    documents = [parse_document(data, uri)
                 for uri, data in sorted(model.items())]
    return sorted("\n".join("\t".join(row.projections)
                             for row in evaluate_query(query, documents))
                  .split("\n"))


def _stored_lines(warehouse, query_id):
    return sorted(warehouse.cloud.s3.peek(
        RESULTS_BUCKET, "results/{}.txt".format(query_id)).data
        .decode("utf-8").split("\n"))


class LiveIndexMachine(RuleBasedStateMachine):
    """One live index beside the ``{uri: bytes}`` it should hold."""

    @initialize(strategy=st.sampled_from(STRATEGIES))
    def build(self, strategy):
        base, self.pool = _contents()
        self.model = dict(base)
        self.deleted = set()
        self.fresh = 0
        self.warehouse = Warehouse(deployment={"loaders": 2,
                                               "batch_size": 4})
        self.warehouse.upload_corpus(_as_corpus(base))
        _, record = self.warehouse.build_index_checkpointed(strategy)
        self.live = self.warehouse.live_index(record.name)

    # -- the step check ------------------------------------------------------

    def _step(self, mutate, name):
        """Run ``mutate`` then ``name`` and its look-ups, all inside one
        census; then hold the answers to the model's."""
        warehouse, query = self.warehouse, workload_query(name)
        lookup = self.live.make_lookup()
        answered = []

        def action():
            mutate()
            execution = warehouse.run_query(query, self.live)
            answered.append(_stored_lines(warehouse, execution.query_id))
            answered.extend(
                set(warehouse.cloud.env.run_process(
                    lookup.lookup_pattern(pattern)).uris)
                for pattern in query.patterns)

        unreachable, _, _ = census(action, warehouse.cloud.env)
        assert unreachable == 0
        # The oracle parses outside the census: a model tree links
        # children to parents.
        documents = [parse_document(data, uri)
                     for uri, data in sorted(self.model.items())]
        stored, looked_up = answered[0], answered[1:]
        assert stored == _expected_lines(query, self.model)
        for pattern, uris in zip(query.patterns, looked_up):
            assert uris <= set(self.model), uris & self.deleted
            assert {document.uri for document in documents
                    if pattern_matches(pattern, document)} <= uris

    # -- rules ---------------------------------------------------------------

    @rule(readd=st.booleans(), pick=PICK, content=PICK, query=QUERIES)
    def add(self, readd, pick, content, query):
        if readd and self.deleted:
            uri = sorted(self.deleted)[pick % len(self.deleted)]
        else:
            self.fresh += 1
            uri = "fresh-{}.xml".format(self.fresh)
        data = self.pool[content % len(self.pool)]
        self.model[uri] = data
        self.deleted.discard(uri)
        increment = _as_corpus({uri: data})
        self._step(lambda: self.warehouse.add_documents(
            self.live, increment), query)

    @precondition(lambda self: len(self.model) > 1)
    @rule(pick=PICK, query=QUERIES)
    def delete(self, pick, query):
        uri = sorted(self.model)[pick % len(self.model)]
        del self.model[uri]
        self.deleted.add(uri)
        self._step(lambda: self.warehouse.delete_documents(
            self.live, [uri]), query)

    @precondition(lambda self: len(self.model) > 1)
    @rule(pick=PICK, query=QUERIES, offset=DELETE_OFFSETS)
    def delete_beside_query(self, pick, query, offset):
        """Serve one query with the delete in a background feed: the
        query linearises before or after it, never dies of it."""
        uri = sorted(self.model)[pick % len(self.model)]
        before = dict(self.model)
        del self.model[uri]
        self.deleted.add(uri)
        warehouse = self.warehouse
        reports = []
        unreachable, _, _ = census(lambda: reports.append(warehouse.serve(
            {"arrival": "burst", "rate_qps": 4.0, "queries": 1,
             "mix": (query,)}, self.live,
            background=[mutation_feed(self.live, [("delete", [uri])],
                                      interval_s=offset)])),
            warehouse.cloud.env)
        assert unreachable == 0
        (served,) = reports[0].queries
        assert _stored_lines(warehouse, served.query_id) in (
            _expected_lines(workload_query(query), before),
            _expected_lines(workload_query(query), self.model))

    @rule(pick=PICK, content=PICK, query=QUERIES)
    def update(self, pick, content, query):
        uri = sorted(self.model)[pick % len(self.model)]
        data = self.pool[content % len(self.pool)]
        self.model[uri] = data
        self._step(lambda: self.warehouse.update_document(
            self.live, uri, data), query)

    @precondition(lambda self: self.live.deltas)
    @rule(max_units=st.sampled_from([None, 1]), query=QUERIES)
    def compact(self, max_units, query):
        self._step(lambda: self.warehouse.compact_index(
            self.live, max_units=max_units), query)

    @rule(query=QUERIES)
    def ask(self, query):
        self._step(lambda: None, query)


LiveIndexMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestLiveIndexMachine = LiveIndexMachine.TestCase
