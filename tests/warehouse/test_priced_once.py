"""Every phase prices what it emitted, once — never the whole meter.

Count-based (``price_record`` calls against meter records appended), so
nothing here depends on wall-clock time; and bit-exact: a report's span
dollars must equal the whole-meter fold's slot field for field.
"""

import pytest

from repro.config import ScaleProfile
from repro.costs import estimator
from repro.query.workload import workload_query
from repro.telemetry import span_inclusive_costs
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 16
TRAFFIC = {"arrival": "poisson", "rate_qps": 2.0, "queries": 12, "seed": 7}


def _corpus(seed=31, documents=DOCUMENTS, prefix=""):
    corpus = generate_corpus(ScaleProfile(documents=documents, seed=seed))
    if prefix:
        corpus.data = {prefix + uri: data
                       for uri, data in corpus.data.items()}
        corpus.kinds = {prefix + uri: kind
                        for uri, kind in corpus.kinds.items()}
        for document in corpus.documents:
            document.uri = prefix + document.uri
    return corpus


def _live_warehouse(deployment=None):
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(_corpus())
    _, record = warehouse.build_index_checkpointed(
        "LUI", config={"loaders": 2, "batch_size": 4})
    return warehouse, warehouse.live_index(record.name)


@pytest.fixture
def priced(monkeypatch):
    """Counts ``price_record`` calls; ``priced.clear()`` restarts it."""
    calls = []
    price = estimator.price_record

    def counting(record, book):
        calls.append(record)
        return price(record, book)

    monkeypatch.setattr(estimator, "price_record", counting)
    return calls


def _whole_meter_slot(warehouse, span_id):
    return span_inclusive_costs(warehouse.telemetry.tracer,
                                warehouse.cloud.meter,
                                warehouse.cloud.price_book)[span_id]


def test_run_query_prices_only_its_own_records(priced):
    warehouse = Warehouse()
    warehouse.upload_corpus(_corpus())
    index = warehouse.build_index("LU", config={"loaders": 2})
    meter = warehouse.cloud.meter
    queries = [workload_query(name) for name in ("q1", "q2", "q6")]
    for call in range(30):
        mark = meter.mark()
        priced.clear()
        execution = warehouse.run_query(queries[call % 3], index)
        # All the call appended, bar the one worker's (unpriced)
        # launch marker, which precedes the workload span.
        launch, *appended = meter.since(mark)
        assert (launch.service, launch.operation) == ("ec2", "launch")
        assert priced == appended, "call {}".format(call + 1)
    assert 0 < len(appended) < len(meter) // 30
    assert execution.cost == _whole_meter_slot(warehouse, execution.span_id)


def test_mutations_price_only_their_own_records(priced):
    warehouse, live = _live_warehouse()
    meter = warehouse.cloud.meter
    for batch in range(3):
        mark = meter.mark()
        priced.clear()
        report = warehouse.add_documents(
            live, _corpus(seed=7000 + batch, documents=8,
                          prefix="b{}-".format(batch)),
            config={"loaders": 2})
        appended = meter.since(mark)
        # Once for the span roll-up, once more for the estimator's fold
        # of the records that carry the mutation's tag.
        tagged = [r for r in appended if r.tag.startswith(report.tag)]
        assert priced == appended + tagged, "batch {}".format(batch)
        assert report.span_cost == _whole_meter_slot(warehouse,
                                                     report.span_id)
        assert report.span_cost == report.estimator_cost
    mark = meter.mark()
    priced.clear()
    compaction = warehouse.compact_index(live)
    assert len(priced) <= 2 * len(meter.since(mark)) < len(meter)
    assert compaction.span_cost == _whole_meter_slot(warehouse,
                                                     compaction.span_id)
    assert compaction.span_cost == compaction.estimator_cost


def _two_tenant_warehouse(history):
    """A fresh two-tenant warehouse and its index, its meter aged by
    ``history`` closed-loop queries."""
    warehouse = Warehouse(deployment={
        "loaders": 2, "batch_size": 4, "workers": 2,
        "tenancy": TenancyConfig(tenants=(
            TenantSpec(name="alpha", weight=3.0),
            TenantSpec(name="beta", weight=1.0)))})
    warehouse.upload_corpus(_corpus(seed=77))
    index = warehouse.build_index("LUI")
    for _ in range(history):
        warehouse.run_query(workload_query("q1"), index)
    return warehouse, index


def _two_tenant_serve(history):
    warehouse, index = _two_tenant_warehouse(history)
    return warehouse, warehouse.serve(TRAFFIC, index)


def test_serve_prices_each_record_it_emitted_once(priced):
    """One pricing feeds the span roll-up, the estimator's tag fold and
    the tenant partition; history is never re-priced."""
    warehouse, index = _two_tenant_warehouse(history=3)
    meter = warehouse.cloud.meter
    for _ in range(2):
        mark = meter.mark()
        priced.clear()
        report = warehouse.serve(TRAFFIC, index)
        emitted = meter.since(mark)
        assert priced == emitted and 0 < len(emitted) < len(meter)
        assert report.cost_tied_out and report.tenants_tied_out
        assert [bill.tenant for bill in report.tenant_bills] \
            == ["alpha", "beta", "shared"]


def test_serve_span_dollars_equal_the_whole_meter_slots():
    warehouse, report = _two_tenant_serve(history=3)
    assert report.cost_tied_out and report.tenants_tied_out
    whole = span_inclusive_costs(warehouse.telemetry.tracer,
                                 warehouse.cloud.meter,
                                 warehouse.cloud.price_book)
    assert report.request_cost == whole[report.span_id].total
    assert report.request_cost == report.estimator_request_cost
    assert report.queries
    spans = {s.attributes.get("query_id"): s.span_id
             for s in warehouse.telemetry.tracer.spans
             if s.name == "query"}
    for outcome in report.queries:
        assert outcome.cost == whole[spans[outcome.query_id]].total


def test_serve_tag_serial_belongs_to_the_warehouse():
    """Same seed, same process, fresh warehouse: the same report."""
    _, first = _two_tenant_serve(history=0)
    _, second = _two_tenant_serve(history=0)
    assert first.tag == second.tag == "serve:LUI:poisson:1"
    assert first.to_dict() == second.to_dict()
