"""Dedupe-audit regression: one hash key is billed at most once.

Two LUP query paths can end in the same last key (``//a[/b][/c//b]``
both end at ``b``); the look-up needs that index item once, but the
pre-audit code read it once *per path*.  These tests pin the fix on
both read paths: the seed's per-key reads (plain stores) and the
router's coalesced batch reads.
"""

import pytest

from repro.indexing.entries import IndexEntry
from repro.indexing.keys import element_key
from repro.indexing.lookup_plans import LUPLookup, pattern_query_paths
from repro.indexing.mapper import DynamoIndexStore
from repro.query.parser import parse_pattern
from repro.store import StoreRouter

pytestmark = pytest.mark.store

#: Both root-to-leaf paths end at element key ``b``.
PATTERN = "//a[/b][/c//b]"


def _seed_store(cloud, store):
    """One table with path payloads for the shared last key ``b``."""
    store.create_table("lup")
    a, b, c = (element_key(label) for label in "abc")
    entries = [
        # Matches both query paths -> survives the intersection.
        IndexEntry(key=b, uri="both.xml",
                   paths=("/{}/{}".format(a, b),
                          "/{}/{}/{}".format(a, c, b))),
        # Matches only ``//a/b`` -> filtered out by ``//a/c//b``.
        IndexEntry(key=b, uri="one.xml",
                   paths=("/{}/{}".format(a, b),)),
    ]

    def scenario():
        return (yield from store.write_entries("lup", entries))
    cloud.env.run_process(scenario())


def _lookup(cloud, store):
    """Run the LUP look-up for the duplicate-last-key pattern."""
    lookup = LUPLookup(store, "lup", cloud.telemetry.tracer)

    def scenario():
        return (yield from lookup.lookup_pattern(parse_pattern(PATTERN)))
    return cloud.env.run_process(scenario())


def test_pattern_really_duplicates_the_last_key():
    """Guard: the regression scenario has two paths, one distinct key."""
    paths = pattern_query_paths(parse_pattern(PATTERN), True)
    last_keys = [path[-1][1] for path in paths]
    assert len(last_keys) == 2
    assert len(set(last_keys)) == 1


def test_plain_store_reads_duplicate_key_once(cloud):
    """Seed read path (per-key gets): the shared key is read once."""
    store = DynamoIndexStore(cloud.dynamodb, seed=1)
    _seed_store(cloud, store)
    outcome = _lookup(cloud, store)
    assert outcome.index_gets == 1
    assert cloud.meter.request_count("dynamodb", "get") == 1
    assert outcome.keys_looked_up == 2  # both paths still evaluated
    assert outcome.uris == ["both.xml"]


def test_coalescing_router_reads_duplicate_key_once(cloud):
    """Router read path (batched gets): same single billed get."""
    store = StoreRouter(DynamoIndexStore(cloud.dynamodb, seed=1),
                        cloud.telemetry, shards=2)
    _seed_store(cloud, store)
    outcome = _lookup(cloud, store)
    assert outcome.index_gets == 1
    assert cloud.meter.request_count("dynamodb", "get") == 1
    assert outcome.uris == ["both.xml"]
