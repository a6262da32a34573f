"""The per-tenant facade: idempotent submits, polling, ETag mutations."""

import pytest

from repro.config import ScaleProfile
from repro.errors import ConfigError
from repro.tenancy import QueryRequest, TenantFacade
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.tenancy

DOCUMENTS = 12
SEED = 41


def make_increment(batch, documents=4):
    """A small corpus whose URIs cannot collide with the base's."""
    corpus = generate_corpus(ScaleProfile(documents=documents,
                                          seed=7000 + batch))
    corpus.data = {"b{}-{}".format(batch, uri): data
                   for uri, data in corpus.data.items()}
    for document in corpus.documents:
        document.uri = "b{}-{}".format(batch, document.uri)
    corpus.kinds = {"b{}-{}".format(batch, uri): kind
                    for uri, kind in corpus.kinds.items()}
    return corpus


@pytest.fixture
def warehouse():
    warehouse = Warehouse(deployment={"loaders": 2, "batch_size": 4})
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    return warehouse


@pytest.fixture
def live(warehouse):
    _, record = warehouse.build_index_checkpointed(
        "LUI", loaders=2, batch_size=4)
    return warehouse.live_index(record.name)


def test_rejects_bad_tenant_names(warehouse):
    with pytest.raises(ConfigError):
        TenantFacade(warehouse, tenant="")
    with pytest.raises(ConfigError):
        TenantFacade(warehouse, tenant="two words")


def test_submit_stamps_the_facade_tenant(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    cloud = warehouse.cloud

    def scenario():
        return (yield from facade.submit(QueryRequest(query="//a")))
    query_id = cloud.env.run_process(scenario())
    assert query_id >= 0

    def drain():
        from repro.warehouse.messages import QUERY_QUEUE
        body, handle = yield from cloud.sqs.receive(QUERY_QUEUE)
        yield from cloud.sqs.delete(QUERY_QUEUE, handle)
        return body
    body = cloud.env.run_process(drain())
    assert body.tenant == "acme"


def test_idempotency_key_deduplicates_retries(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    cloud = warehouse.cloud
    request = QueryRequest(query="//a", idempotency_key="req-1")

    def scenario():
        first = yield from facade.submit(request)
        second = yield from facade.submit(request)
        third = yield from facade.submit(
            QueryRequest(query="//a", idempotency_key="req-2"))
        return first, second, third
    first, second, third = cloud.env.run_process(scenario())
    assert first == second
    assert third != first
    assert facade.deduplicated == 1
    from repro.warehouse.messages import QUERY_QUEUE
    assert cloud.sqs.approximate_depth(QUERY_QUEUE) == 2


def test_poll_is_non_blocking_when_nothing_landed(warehouse):
    facade = TenantFacade(warehouse, tenant="acme")
    cloud = warehouse.cloud

    def scenario():
        return (yield from facade.poll())
    response = cloud.env.run_process(scenario())
    assert response.status == "pending"
    assert response.tenant == "acme"


def test_mutation_with_fresh_etag_applies(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    tag = facade.etag(live)
    response = facade.mutate(live, "add", if_match=tag,
                             increment=make_increment(1))
    assert response.applied
    assert response.kind == "add"
    assert response.report is not None
    # The applied mutation bumped the version: the new tag differs.
    assert response.etag != tag
    assert response.etag == facade.etag(live)


def test_mutation_with_stale_etag_conflicts(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    stale = facade.etag(live)
    applied = facade.mutate(live, "add", if_match=stale,
                            increment=make_increment(1))
    assert applied.applied
    retry = facade.mutate(live, "add", if_match=stale,
                          increment=make_increment(2))
    assert not retry.applied
    assert retry.status == "conflict"
    # The conflict carries the current tag, so re-reading it retries
    # cleanly.
    assert retry.etag == facade.etag(live)
    recovered = facade.mutate(live, "add", if_match=retry.etag,
                              increment=make_increment(2))
    assert recovered.applied


def test_mutation_spans_carry_the_tenant_tag(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    facade.mutate(live, "add", if_match=facade.etag(live),
                  increment=make_increment(1))
    tags = {record.tag for record in warehouse.cloud.meter._records
            if record.tag}
    assert any(":tenant:acme:" in tag for tag in tags)


def test_unknown_mutation_kind_is_rejected(warehouse, live):
    facade = TenantFacade(warehouse, tenant="acme")
    with pytest.raises(ConfigError):
        facade.mutate(live, "truncate", if_match=facade.etag(live))


def test_a_tenants_repeated_mutations_each_tie_out(warehouse, live):
    # Both adds carry the tag "ingest:<index>:tenant:acme:add": each must
    # price only its own records, not its predecessor's too.
    facade = TenantFacade(warehouse, tenant="acme")
    reports = []
    for batch in (1, 2):
        response = facade.mutate(live, "add", if_match=facade.etag(live),
                                 increment=make_increment(batch))
        reports.append(response.report)
    assert reports[0].tag == reports[1].tag
    assert [report.cost_tied_out for report in reports] == [True, True]


def test_a_tenant_tag_prefixing_another_prices_only_its_own(warehouse,
                                                             live):
    # acme's compaction tag "compact:<index>:tenant:acme" prefixes
    # acme2's: acme's compaction must not price acme2's as well.
    reports = []
    for batch, tenant in enumerate(("acme2", "acme"), start=1):
        facade = TenantFacade(warehouse, tenant=tenant)
        facade.mutate(live, "add", if_match=facade.etag(live),
                      increment=make_increment(batch))
        reports.append(facade.mutate(
            live, "compact", if_match=facade.etag(live)).report)
    assert reports[0].tag.startswith(reports[1].tag)
    assert [report.cost_tied_out for report in reports] == [True, True]
