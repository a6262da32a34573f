"""Unit tests for the :class:`~repro.store.router.StoreRouter`.

The router is the storage-access seam: these tests pin its passthrough
contract (default configuration delegates verbatim), its sharded
write/read routing, the cache read-through path, the dedupe audit
(one hash key never billed twice in one read), the chunked
``batch_get`` interaction with the real simulated store, the retry
interplay with the resilience proxy, and the metrics it feeds the
telemetry registry.
"""

import pytest

from repro.cloud import CloudProvider
from repro.cloud.dynamodb import BATCH_GET_LIMIT
from repro.faults import FaultPlan
from repro.indexing.entries import IndexEntry
from repro.indexing.mapper import DynamoIndexStore
from repro.store import IndexCache, StoreRouter

pytestmark = pytest.mark.store


def _entries(count, uri="d.xml"):
    """``count`` presence entries with distinct keys."""
    return [IndexEntry(key="k{}".format(i), uri=uri) for i in range(count)]


def _run(cloud, gen):
    """Drive one generator scenario on a cloud's simulation."""
    return cloud.env.run_process(gen)


def _write(cloud, store, table, entries):
    """Write entries to a store inside the simulation."""
    def scenario():
        return (yield from store.write_entries(table, entries))
    return _run(cloud, scenario())


def _read_keys(cloud, store, table, keys, kind="presence"):
    """Batched read through a store inside the simulation."""
    def scenario():
        return (yield from store.read_keys(table, keys, kind))
    return _run(cloud, scenario())


def _read_key(cloud, store, table, key, kind="presence"):
    """Point read through a store inside the simulation."""
    def scenario():
        return (yield from store.read_key(table, key, kind))
    return _run(cloud, scenario())


class TestPassthrough:
    """Default configuration: the router must be invisible."""

    def test_default_config_is_passthrough(self, cloud):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry)
        assert router.passthrough
        assert not router.coalesce_reads
        assert router.cache is None

    def test_active_configs_disable_passthrough(self, cloud):
        base = DynamoIndexStore(cloud.dynamodb, seed=1)
        assert not StoreRouter(base, cloud.telemetry,
                               shards=2).passthrough
        cached = StoreRouter(base, cloud.telemetry,
                             cache=IndexCache(4096))
        assert not cached.passthrough
        assert cached.coalesce_reads

    def test_passthrough_meter_records_match_raw_store(self):
        """Same ops through router vs. raw store: identical traces."""
        def exercise(make_store):
            cloud = CloudProvider()
            store = make_store(cloud)
            store.create_table("idx")
            entries = _entries(30)
            _write(cloud, store, "idx", entries)
            payloads, gets = _read_key(cloud, store, "idx", "k3")
            data, batch_gets = _read_keys(
                cloud, store, "idx", ["k{}".format(i) for i in range(30)])
            raw = store.raw_bytes(["idx"])
            return (cloud.meter.records(), payloads, gets, data,
                    batch_gets, raw)

        raw_run = exercise(lambda c: DynamoIndexStore(c.dynamodb, seed=1))
        routed_run = exercise(
            lambda c: StoreRouter(DynamoIndexStore(c.dynamodb, seed=1),
                                  c.telemetry))
        assert routed_run == raw_run

    def test_delegated_identity_properties(self, cloud):
        base = DynamoIndexStore(cloud.dynamodb, seed=1,
                                range_key_mode="content")
        router = StoreRouter(base, cloud.telemetry)
        assert router.backend_name == "dynamodb"
        assert router.base_store is base
        assert router.range_key_mode == "content"
        router.verify_reads = True
        assert base.verify_reads and router.verify_reads


class TestSharding:
    """Hash-partitioned writes and reads across shard tables."""

    def test_create_table_creates_every_shard(self, cloud):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry, shards=3)
        router.create_table("idx")
        assert cloud.dynamodb.table_names() == \
            ["idx.s0", "idx.s1", "idx.s2"]

    def test_sharded_round_trip_matches_unsharded_content(self):
        """Every key reads back the same payloads as a 1-shard store."""
        entries = _entries(40) + _entries(40, uri="e.xml")
        keys = ["k{}".format(i) for i in range(40)]

        def contents(shards):
            cloud = CloudProvider()
            router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                                 cloud.telemetry,
                                 shards=shards)
            router.create_table("idx")
            stats = _write(cloud, router, "idx", entries)
            data, gets = _read_keys(cloud, router, "idx", keys)
            return stats.items, data, gets

        one_items, one_data, one_gets = contents(1)
        three = contents(3)
        assert three[1] == one_data
        assert three[2] == one_gets  # billable gets are per key, not per call
        assert three[0] == one_items

    def test_writes_balance_across_shards(self, cloud):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry, shards=3)
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(60))
        assert set(router.shard_writes) == {0, 1, 2}
        assert sum(
            cloud.dynamodb.table("idx.s{}".format(i)).item_count()
            for i in range(3)) == sum(router.shard_writes.values())

    def test_read_key_routes_to_owning_shard_only(self, cloud):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry, shards=4)
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(8))
        payloads, gets = _read_key(cloud, router, "idx", "k5")
        assert set(payloads) == {"d.xml"}
        assert gets == 1
        assert sum(router.shard_reads.values()) == 1

    def test_storage_accounting_spans_all_shards(self):
        """raw/overhead bytes are identical sharded or not."""
        def totals(shards):
            cloud = CloudProvider()
            router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                                 cloud.telemetry,
                                 shards=shards)
            router.create_table("idx")
            _write(cloud, router, "idx", _entries(50))
            return (router.raw_bytes(["idx"]),
                    router.overhead_bytes(["idx"]))

        assert totals(3) == totals(1)


class TestCache:
    """The epoch-aware read-through path."""

    def _cached_router(self, cloud, cache_bytes=256 * 1024, epoch=0):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry,
                             cache=IndexCache(cache_bytes),
                             epoch=epoch)
        router.create_table("idx")
        return router

    def test_a_router_reads_through_the_cache_it_is_handed(self, cloud):
        cache = IndexCache(256 * 1024)
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry, cache=cache)
        assert router.cache is cache and not router.passthrough
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(2))
        first, _ = _read_key(cloud, router, "idx", "k1")
        assert cache.get("idx", "k1", 0) is first
        _, gets = _read_key(cloud, router, "idx", "k1")
        assert gets == 0

    def test_repeat_point_read_bills_nothing(self, cloud):
        router = self._cached_router(cloud)
        _write(cloud, router, "idx", _entries(4))
        first, first_gets = _read_key(cloud, router, "idx", "k1")
        before = cloud.meter.request_count("dynamodb", "get")
        second, second_gets = _read_key(cloud, router, "idx", "k1")
        assert second == first
        assert first_gets == 1 and second_gets == 0
        assert cloud.meter.request_count("dynamodb", "get") == before
        assert router.cache.hits == 1

    def test_cached_payloads_are_copy_protected(self, cloud):
        """A caller cannot poison the cache: what a read hands out —
        the stored view, miss or hit, point or batched — refuses
        mutation, so the router hands out the entry itself."""
        router = self._cached_router(cloud)
        _write(cloud, router, "idx", _entries(2))
        first, _ = _read_key(cloud, router, "idx", "k1")
        second, gets = _read_key(cloud, router, "idx", "k1")
        batched, _ = _read_keys(cloud, router, "idx", ["k0", "k1"])
        assert gets == 0 and second is first and batched["k1"] is first
        for payloads in (first, batched["k0"]):
            with pytest.raises(TypeError):
                payloads["poison.xml"] = ()
            with pytest.raises(AttributeError):
                payloads.clear()
        assert dict(second) == {"d.xml": None}

    def test_negative_read_is_cached(self, cloud):
        router = self._cached_router(cloud)
        assert _read_key(cloud, router, "idx", "ghost") == ({}, 1)
        assert _read_key(cloud, router, "idx", "ghost") == ({}, 0)

    def test_write_through_discard_serves_fresh_data(self, cloud):
        """An ingest into a cached key must be visible immediately."""
        router = self._cached_router(cloud)
        _write(cloud, router, "idx", _entries(2))
        _read_key(cloud, router, "idx", "k1")  # now cached
        _write(cloud, router, "idx",
               [IndexEntry(key="k1", uri="new.xml")])
        payloads, gets = _read_key(cloud, router, "idx", "k1")
        assert set(payloads) == {"d.xml", "new.xml"}
        assert gets == 1  # re-read from the store, not the stale entry

    def test_epochs_do_not_share_entries(self, cloud):
        """Two routers on different epochs never serve each other."""
        cache_holder = self._cached_router(cloud, epoch=1)
        _write(cloud, cache_holder, "idx", _entries(2))
        _read_key(cloud, cache_holder, "idx", "k1")
        successor = StoreRouter(
            DynamoIndexStore(cloud.dynamodb, seed=1), cloud.telemetry,
            cache=cache_holder.cache, epoch=2)
        payloads, gets = _read_key(cloud, successor, "idx", "k1")
        assert gets == 1  # epoch 2 never sees epoch 1's entry
        assert set(payloads) == {"d.xml"}


class TestBatchedReads:
    """read_keys: dedupe, chunking and the empty-request guarantee."""

    def test_duplicate_keys_billed_once(self, cloud):
        """The dedupe audit: same hash key twice → one store hit."""
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry, shards=2)
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(4))
        data, gets = _read_keys(cloud, router, "idx",
                                ["k1", "k2", "k1", "k1", "k3"])
        assert gets == 3
        assert cloud.meter.request_count("dynamodb", "get") == 3
        assert set(data) == {"k1", "k2", "k3"}

    def test_cap_plus_one_reads_through_chunked_batches(self, cloud):
        """101 distinct keys read fine — proof the router chunks them
        (one oversized ``batch_get`` would raise ValidationError)."""
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry,
                             cache=IndexCache(1 << 20))
        router.create_table("idx")
        count = BATCH_GET_LIMIT + 1
        _write(cloud, router, "idx", _entries(count))
        keys = ["k{}".format(i) for i in range(count)]
        data, gets = _read_keys(cloud, router, "idx", keys)
        assert gets == count
        assert all(data["k{}".format(i)] for i in range(count))

    def test_all_hits_issue_no_request_at_all(self, cloud):
        """A fully cached batch must not issue an empty ``batch_get``."""
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry,
                             cache=IndexCache(1 << 20))
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(6))
        keys = ["k{}".format(i) for i in range(6)]
        _read_keys(cloud, router, "idx", keys)
        before = cloud.meter.request_count("dynamodb", "get")
        data, gets = _read_keys(cloud, router, "idx", keys)
        assert gets == 0
        assert cloud.meter.request_count("dynamodb", "get") == before
        assert set(data) == set(keys)

    def test_missing_keys_come_back_empty_and_cached(self, cloud):
        router = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                             cloud.telemetry,
                             cache=IndexCache(1 << 20))
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(2))
        data, _ = _read_keys(cloud, router, "idx", ["k0", "ghost"])
        assert data["ghost"] == {}
        _, gets = _read_keys(cloud, router, "idx", ["ghost"])
        assert gets == 0  # the negative answer was cached


class TestResilienceInterplay:
    """Router reads retried by the resilience proxy under faults."""

    def test_chunked_reads_survive_transient_errors(self):
        """Each chunk retries independently; results stay correct and
        cache hits never touch the faulty network again."""
        plan = FaultPlan(seed=3).transient_errors("dynamodb", rate=0.25)
        cloud = CloudProvider(fault_plan=plan)
        router = StoreRouter(
            DynamoIndexStore(cloud.resilient.dynamodb, seed=1),
            cloud.telemetry,
            shards=2, cache=IndexCache(1 << 20))
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(40))
        keys = ["k{}".format(i) for i in range(40)]
        data, gets = _read_keys(cloud, router, "idx", keys)
        assert gets == 40
        assert all(set(data[key]) == {"d.xml"} for key in keys)
        retries_after_read = cloud.resilient.client.retries["dynamodb"]
        assert retries_after_read > 0
        _, warm_gets = _read_keys(cloud, router, "idx", keys)
        assert warm_gets == 0
        assert cloud.resilient.client.retries["dynamodb"] == \
            retries_after_read


class TestMetrics:
    """Counters fed to the deployment's telemetry registry."""

    def test_cache_shard_and_coalescing_counters(self, cloud):
        router = StoreRouter(
            DynamoIndexStore(cloud.dynamodb, seed=1),
            shards=2, cache=IndexCache(1 << 20),
            telemetry=cloud.telemetry)
        router.create_table("idx")
        _write(cloud, router, "idx", _entries(10))
        keys = ["k{}".format(i) for i in range(10)]
        _read_keys(cloud, router, "idx", keys + keys[:4])
        _read_keys(cloud, router, "idx", keys)
        hub = cloud.telemetry
        assert hub.counter("store_cache_hits_total").value() == 10.0
        assert hub.counter("store_cache_misses_total").value() == 10.0
        assert hub.counter("store_coalesced_reads_total").value() == 4.0
        shard_reads = hub.counter("store_shard_reads_total", "",
                                  ("shard",))
        assert shard_reads.value(shard="0") + \
            shard_reads.value(shard="1") == 10.0
        writes = hub.counter("store_shard_writes_total", "", ("shard",))
        assert writes.value(shard="0") + writes.value(shard="1") == \
            sum(router.shard_writes.values())
