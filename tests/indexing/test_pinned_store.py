"""What a whole 2LUPI build stores, pinned by digest.

``TestOnDiskContract`` pins three documents' items; this pins every item
of a generated 48-document corpus, built once with UUID range keys and
once checkpointed with content-addressed ones: table, hash key, range
key, attributes in sorted order and billed size, plus the bytes the
meter billed DynamoDB for.  A faster walk, encoder, packer or put path
may not move any of it.
"""

import hashlib

import pytest

from repro import Warehouse
from repro.config import ScaleProfile
from repro.xmark import generate_corpus

DOCUMENTS = 48
SEED = 20130318


def _store_digest(warehouse):
    db = warehouse.cloud.dynamodb
    digest = hashlib.sha256()
    count = 0
    for table in db.table_names():
        for item in db.table(table).all_items():
            count += 1
            digest.update(repr((
                table, item.hash_key, item.range_key,
                sorted(item.attributes.items()),
                item.size_bytes)).encode("utf-8"))
    bytes_in = sum(record.bytes_in
                   for record in warehouse.cloud.meter.records("dynamodb"))
    return count, digest.hexdigest(), bytes_in


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED))


def test_uuid_build_stores_pinned_items(corpus):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    warehouse.build_index("2LUPI")
    assert _store_digest(warehouse) == (
        3962,
        "0432e5523036eb0775ad5048c2b4c25a17481f727d168869a39b322552664f02",
        560839)


def test_checkpointed_build_stores_pinned_items(corpus):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    warehouse.build_index_checkpointed("2LUPI")
    assert _store_digest(warehouse) == (
        2541,
        "9193fea899eec2a20e6c2833491f6da338a73f60f9690e266dfb1f8cdf2d3525",
        530852)
