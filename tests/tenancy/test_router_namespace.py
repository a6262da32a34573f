"""Tenant namespaces over the storage-access layer.

The contract: a default (un-tenanted) router is byte-identical to the
seed; a tenant router prefixes every physical table and keys its cache
lines under the tenant, so two tenants sharing one backend and one
cache can never read each other's entries or invalidate each other's
lines.
"""

import pytest

from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import DynamoIndexStore
from repro.store import StoreRouter
from repro.store.cache import IndexCache

pytestmark = pytest.mark.tenancy


def _entries(count, uri="d.xml"):
    return [IndexEntry(key="k{}".format(i), uri=uri) for i in range(count)]


def _run(cloud, gen):
    return cloud.env.run_process(gen)


def _write(cloud, store, table, entries):
    def scenario():
        return (yield from store.write_entries(table, entries))
    return _run(cloud, scenario())


def _read_key(cloud, store, table, key, kind="presence"):
    def scenario():
        return (yield from store.read_key(table, key, kind))
    return _run(cloud, scenario())


@pytest.fixture
def base(cloud):
    return DynamoIndexStore(cloud.dynamodb, seed=1)


def test_default_router_uses_unprefixed_tables(cloud, base):
    router = StoreRouter(base, cloud.telemetry)
    router.create_table("labels")
    _write(cloud, router, "labels", _entries(2))
    assert "labels" in cloud.dynamodb.table_names()
    assert not any(name.startswith("tnt-")
                   for name in cloud.dynamodb.table_names())


def test_tenant_router_prefixes_every_table(cloud, base):
    router = StoreRouter(base, cloud.telemetry).for_tenant("acme")
    router.create_table("labels")
    _write(cloud, router, "labels", _entries(2))
    assert "tnt-acme--labels" in cloud.dynamodb.table_names()
    assert "labels" not in cloud.dynamodb.table_names()


def test_for_tenant_shares_backend_and_config(cloud, base):
    cache = IndexCache(1 << 20)
    router = StoreRouter(base, cloud.telemetry, shards=2, cache=cache)
    scoped = router.for_tenant("acme")
    assert scoped.base_store is base
    assert scoped.shards == 2
    assert scoped.cache is cache
    assert scoped.tenant == "acme"
    assert router.tenant == ""


def test_tenants_cannot_read_each_other(cloud, base):
    router = StoreRouter(base, cloud.telemetry)
    acme = router.for_tenant("acme")
    globex = router.for_tenant("globex")
    acme.create_table("labels")
    globex.create_table("labels")
    _write(cloud, acme, "labels", [IndexEntry(key="k", uri="acme.xml")])
    _write(cloud, globex, "labels", [IndexEntry(key="k", uri="globex.xml")])
    payloads, _ = _read_key(cloud, acme, "labels", "k")
    assert set(payloads) == {"acme.xml"}
    payloads, _ = _read_key(cloud, globex, "labels", "k")
    assert set(payloads) == {"globex.xml"}


def test_shard_tables_are_prefixed_once(cloud, base):
    router = StoreRouter(base, cloud.telemetry, shards=2)
    scoped = router.for_tenant("acme")
    tables = scoped.shard_tables("labels")
    assert len(tables) == 2
    assert all(table.startswith("tnt-acme--labels") for table in tables)


class TestCacheIsolation:
    @pytest.fixture
    def cache(self):
        return IndexCache(1 << 20)

    def test_cache_keys_carry_the_tenant(self, cloud, base, cache):
        acme = StoreRouter(base, cloud.telemetry,
                           cache=cache).for_tenant("acme")
        globex = StoreRouter(base, cloud.telemetry,
                             cache=cache).for_tenant("globex")
        acme.create_table("labels")
        globex.create_table("labels")
        _write(cloud, acme, "labels", [IndexEntry(key="k", uri="a.xml")])
        _write(cloud, globex, "labels", [IndexEntry(key="k", uri="g.xml")])
        # Warm acme's line, then read globex: the shared cache must
        # miss (different tenant) and return globex's payload.
        _read_key(cloud, acme, "labels", "k")
        payloads, gets = _read_key(cloud, globex, "labels", "k")
        assert set(payloads) == {"g.xml"}
        assert gets > 0  # a cross-tenant hit would have billed zero

    def test_invalidate_tenant_spares_the_others(self, cache):
        cache.put("labels", "k", 0, {"a.xml": b"1"}, "acme")
        cache.put("labels", "k", 0, {"g.xml": b"1"}, "globex")
        cache.invalidate_tenant("acme")
        assert cache.get("labels", "k", 0, "acme") is None
        assert cache.get("labels", "k", 0, "globex") is not None

    def test_invalidate_table_crosses_tenants(self, cache):
        cache.put("labels", "k", 0, {"a.xml": b"1"}, "acme")
        cache.put("labels", "k", 0, {"g.xml": b"1"}, "globex")
        cache.invalidate_table("labels")
        assert cache.get("labels", "k", 0, "acme") is None
        assert cache.get("labels", "k", 0, "globex") is None
