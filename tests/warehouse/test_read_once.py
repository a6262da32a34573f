"""The query read path does each piece of host work once per unit read.

Count-based, like ``test_priced_once`` / ``test_written_once``: calls
of the evaluator, the twig flattening and the path regex against what
the look-ups asked for — nothing here depends on wall-clock time.  The
second half is the memo's only coherence rule: whoever replaces or pops
a parse-cache entry has invalidated the rows evaluated on it.
"""

import pytest

from tests.warehouse.test_priced_once import _corpus, _live_warehouse

from repro.engine import columnar
from repro.engine.evaluator import evaluate_query
from repro.indexing import lookup_plans
from repro.query.parser import parse_query
from repro.query.workload import workload_query
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse, query_processor
from repro.warehouse.warehouse import RESULTS_BUCKET

TRAFFIC = {"arrival": "poisson", "rate_qps": 2.0, "queries": 20, "seed": 7}


def _generator_wrapper(function, before=None, after=None):
    def wrapper(self, *args, **kwargs):
        if before is not None:
            before(self, *args, **kwargs)
        value = yield from function(self, *args, **kwargs)
        if after is not None:
            after(value, *args, **kwargs)
        return value
    return wrapper


@pytest.fixture
def reads(monkeypatch):
    """What a run asked for and what the read path computed for it."""
    seen = {
        "asked": [],        # (query name, pattern index, uri) per request
        "evaluated": [],    # (pattern text, uri) per evaluate_pattern call
        "workers": set(),   # workers that processed a query
        "twig_lookups": [], "flattened": 0, "joins_built": 0,
        "matched": [],      # (regex serial, data path) per regex.match
        "path_rows": 0,     # path-filter rows charged
    }

    def asked(outcome, query):
        for index, pattern in enumerate(outcome.per_pattern):
            seen["asked"].extend((query.name, index, uri)
                                 for uri in pattern.uris)

    monkeypatch.setattr(
        lookup_plans.BaseLookup, "lookup_query", _generator_wrapper(
            lookup_plans.BaseLookup.lookup_query, after=asked))
    monkeypatch.setattr(
        query_processor.QueryWorker, "_process", _generator_wrapper(
            query_processor.QueryWorker._process,
            before=lambda self, request: seen["workers"].add(id(self))))

    evaluate = query_processor.evaluate_pattern

    def evaluating(pattern, document):
        seen["evaluated"].append((str(pattern), document.uri))
        return evaluate(pattern, document)

    monkeypatch.setattr(query_processor, "evaluate_pattern", evaluating)

    def counting(name, function):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return function(*args, **kwargs)
        return wrapper

    def count_twig_lookup(_self, plan, *_args, **_kwargs):
        seen["twig_lookups"].append(plan)  # held: ids stay distinct

    monkeypatch.setattr(
        lookup_plans.LUILookup, "_twig_lookup", _generator_wrapper(
            lookup_plans.LUILookup._twig_lookup, before=count_twig_lookup))
    if hasattr(columnar, "flatten_twig"):  # absent before "read once"
        flatten = counting("flattened", columnar.flatten_twig)
        monkeypatch.setattr(columnar, "flatten_twig", flatten)
        monkeypatch.setattr(lookup_plans, "flatten_twig", flatten)
    monkeypatch.setattr(
        columnar.BlockTwigJoin, "__init__",
        counting("joins_built", columnar.BlockTwigJoin.__init__))

    compile_path = lookup_plans.query_path_regex

    class CountingRegex:
        def __init__(self, path):
            self._regex = compile_path(path)
            self._serial = len(seen["matched"]), path

        def match(self, data_path):
            seen["matched"].append((self._serial, data_path))
            return self._regex.match(data_path)

    monkeypatch.setattr(lookup_plans, "query_path_regex", CountingRegex)
    charge = lookup_plans.PlanStats.charge

    def charging(self, operator, rows):
        if operator == "path-filter":
            seen["path_rows"] += rows
        return charge(self, operator, rows)

    monkeypatch.setattr(lookup_plans.PlanStats, "charge", charging)
    return seen


def _two_tenant_serve():
    warehouse = Warehouse(deployment={
        "loaders": 2, "batch_size": 4, "workers": 2,
        "tenancy": TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=3.0),
            TenantSpec(name="beta", weight=1.0)))})
    warehouse.upload_corpus(_corpus(seed=77, documents=24))
    index = warehouse.build_index("2LUPI")
    return warehouse, warehouse.serve(TRAFFIC, index)


def test_serve_evaluates_each_query_pattern_document_once(reads):
    """For the whole fleet: both workers read the warehouse's parse
    cache, so they share the memos of the documents in it."""
    _, report = _two_tenant_serve()
    assert report.offered == report.completed == 40
    assert len(reads["workers"]) == 2
    distinct = set(reads["asked"])
    assert 0 < len(distinct) < len(reads["asked"])
    assert len(reads["evaluated"]) == len(distinct)


def test_serve_flattens_one_twig_per_lookup(reads):
    """Once per distinct pattern: the fleet shares the warehouse's
    parsed queries, and each pattern keeps its compiled plan."""
    _two_tenant_serve()
    plans = {id(plan) for plan in reads["twig_lookups"]}
    assert reads["flattened"] == len(plans) < len(reads["twig_lookups"])
    assert reads["joins_built"] == 0  # no join object per candidate


def test_serve_matches_each_distinct_data_path_once(reads):
    """Per (look-up, query path) — though every data path of every
    candidate document is still charged to the plan."""
    _two_tenant_serve()
    assert len(reads["matched"]) == len(set(reads["matched"])) > 0
    assert len(reads["matched"]) < reads["path_rows"]


def _answer(warehouse, execution):
    payload = warehouse.cloud.s3.peek(
        RESULTS_BUCKET, "results/{}.txt".format(execution.query_id)).data
    return sorted(payload.decode("utf-8").split("\n")) if payload else []


def _assert_answers_model(warehouse, index, names=("q1", "q2", "q6", "q9")):
    """``run_query`` returns exactly the evaluator's rows on the corpus
    the warehouse now holds."""
    for name in names:
        query = workload_query(name)
        execution = warehouse.run_query(query, index)
        direct = evaluate_query(query, warehouse.corpus.documents)
        assert execution.result_rows == len(direct), name
        assert _answer(warehouse, execution) == sorted(
            "\t".join(row.projections) for row in direct), name


def test_live_mutations_invalidate_the_memo(reads):
    warehouse, live = _live_warehouse()
    _assert_answers_model(warehouse, live)  # warms every memo
    warmed = len(reads["evaluated"])
    _assert_answers_model(warehouse, live)
    assert len(reads["evaluated"]) == warmed  # all served from memos

    # New content under an old URI: q6 answers change with it.
    documents = warehouse.corpus.documents
    query = workload_query("q6")
    donor = next(d for d in documents if evaluate_query(query, [d]))
    target = next(d for d in documents if not evaluate_query(query, [d]))
    warehouse.update_document(live, target.uri,
                              warehouse.corpus.data[donor.uri],
                              config={"loaders": 1})
    _assert_answers_model(warehouse, live)
    warehouse.delete_documents(live, [donor.uri])
    _assert_answers_model(warehouse, live)
    warehouse.add_documents(live, _corpus(seed=7001, documents=6,
                                          prefix="new-"),
                            config={"loaders": 2})
    _assert_answers_model(warehouse, live)
    assert len(reads["evaluated"]) > warmed


def test_a_second_upload_under_the_same_uris_serves_nothing_stale():
    warehouse = Warehouse()
    first = _corpus(seed=31)
    warehouse.upload_corpus(first)
    _assert_answers_model(warehouse, warehouse.build_index("LU"))
    second = _corpus(seed=32)
    renamed = dict(zip(sorted(second.data), sorted(first.data)))
    second.data = {renamed[uri]: data for uri, data in second.data.items()}
    second.kinds = {renamed[uri]: kind
                    for uri, kind in second.kinds.items()}
    for document in second.documents:
        document.uri = renamed[document.uri]
    assert second.data != first.data
    warehouse.upload_corpus(second)
    _assert_answers_model(warehouse, warehouse.build_index("LU"))
    _assert_answers_model(warehouse, None)  # the no-index scan, too


def test_the_memo_is_bounded_per_document():
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus(documents=4))
    words = ["w{}".format(number) for number in range(200)]
    for word in words:
        warehouse.run_query(parse_query(
            '//item[/name contains("{}")]'.format(word), name=word), None)
    bound = query_processor.EVAL_MEMO_PER_DOCUMENT
    for document in warehouse.corpus.documents:
        memo = document.__dict__["_pattern_rows"]
        assert len(memo) == bound < len(words)
        assert all(isinstance(rows, tuple) for rows in memo.values())
        # Oldest first out: what is left is the newest ``bound`` texts.
        for (text, index), word in zip(memo, words[-bound:]):
            assert index == 0 and '"{}"'.format(word) in text
    # An evicted text is simply evaluated again, correctly.
    query = workload_query("q6")
    execution = warehouse.run_query(query, None)
    assert execution.result_rows == len(
        evaluate_query(query, warehouse.corpus.documents)) > 0
