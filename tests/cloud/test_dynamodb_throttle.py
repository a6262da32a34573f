"""Opt-in DynamoDB throttle mode (ProvisionedThroughputExceeded)."""

import pytest

from repro.cloud.dynamodb import THROTTLE_MAX_BACKLOG_S, DynamoItem
from repro.errors import ThroughputExceeded


@pytest.fixture
def db(cloud):
    cloud.dynamodb.create_table("idx")
    return cloud.dynamodb


def _item(hash_key, range_key="r1"):
    return DynamoItem(hash_key=hash_key, range_key=range_key,
                      attributes={"doc.xml": ("",)})


def _backlog(db, seconds):
    """Pile queued work onto the write/read servers directly."""
    db.write_limiter.consume(db.write_limiter.rate * seconds)
    db.read_limiter.consume(db.read_limiter.rate * seconds)


def test_throttle_mode_is_off_by_default(cloud, db):
    assert not db.throttle_mode
    _backlog(db, 60.0)  # a saturated table merely queues (fluid model)

    def scenario():
        yield from db.put("idx", _item("k"))
        return (yield from db.get("idx", "k"))

    items = cloud.env.run_process(scenario())
    assert len(items) == 1
    assert db.throttled_total == 0


def test_writes_throttle_past_the_backlog_bound(cloud, db):
    db.enable_throttle_mode()
    assert db.throttle_mode
    _backlog(db, 1.0)

    def scenario():
        yield from db.put("idx", _item("k"))

    with pytest.raises(ThroughputExceeded):
        cloud.env.run_process(scenario())
    assert db.throttled_total == 1
    # A throttled request never executes: nothing stored, nothing
    # billed — only the fault event is recorded (throttles are free
    # on AWS).
    assert db.table("idx").item_count() == 0
    assert cloud.meter.request_count("dynamodb") == 0
    assert cloud.meter.request_count("faults", "dynamodb:throttle") == 1


def test_reads_throttle_too(cloud, db):
    def put_one():
        yield from db.put("idx", _item("k"))
    cloud.env.run_process(put_one())

    db.enable_throttle_mode()
    _backlog(db, 1.0)

    def scenario():
        return (yield from db.get("idx", "k"))

    with pytest.raises(ThroughputExceeded):
        cloud.env.run_process(scenario())


def test_requests_under_the_bound_pass(cloud, db):
    db.enable_throttle_mode()
    _backlog(db, THROTTLE_MAX_BACKLOG_S / 2)

    def scenario():
        yield from db.put("idx", _item("k"))

    cloud.env.run_process(scenario())
    assert db.throttled_total == 0
    assert db.table("idx").item_count() == 1

