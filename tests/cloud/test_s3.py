"""Unit tests for the simulated S3 file store."""

import pytest

from repro.errors import (BucketAlreadyExists, NoSuchBucket,
                          NoSuchKey)


@pytest.fixture
def s3(cloud):
    cloud.s3.create_bucket("docs")
    return cloud.s3


def test_create_duplicate_bucket_rejected(s3):
    with pytest.raises(BucketAlreadyExists):
        s3.create_bucket("docs")


def test_put_get_round_trip(cloud, s3):
    def scenario():
        yield from s3.put("docs", "a.xml", b"<a/>")
        data = yield from s3.get("docs", "a.xml")
        return data
    assert cloud.env.run_process(scenario()) == b"<a/>"


def test_get_missing_key_raises(cloud, s3):
    def scenario():
        yield from s3.get("docs", "missing")
    with pytest.raises(NoSuchKey):
        cloud.env.run_process(scenario())


def test_unknown_bucket_raises(cloud):
    def scenario():
        yield from cloud.s3.put("nope", "k", b"x")
    with pytest.raises(NoSuchBucket):
        cloud.env.run_process(scenario())


def test_put_requires_bytes(cloud, s3):
    def scenario():
        yield from s3.put("docs", "k", "not bytes")
    with pytest.raises(TypeError):
        cloud.env.run_process(scenario())


def test_overwrite_bumps_version(cloud, s3):
    def scenario():
        first = yield from s3.put("docs", "k", b"v1")
        second = yield from s3.put("docs", "k", b"v2")
        return first.version_id, second.version_id
    assert cloud.env.run_process(scenario()) == (1, 2)


def test_metadata_round_trip(cloud, s3):
    def scenario():
        yield from s3.put("docs", "k", b"x", metadata={"kind": "items"})
        obj = yield from s3.head("docs", "k")
        return obj.metadata
    assert cloud.env.run_process(scenario()) == {"kind": "items"}


def test_delete_is_idempotent(cloud, s3):
    def scenario():
        yield from s3.put("docs", "k", b"x")
        yield from s3.delete("docs", "k")
        yield from s3.delete("docs", "k")  # no error, as in real S3
        return s3.has_object("docs", "k")
    assert cloud.env.run_process(scenario()) is False


def test_transfer_time_scales_with_size(cloud, s3):
    env = cloud.env

    def timed_put(data):
        start = env.now
        yield from s3.put("docs", "k", data)
        return env.now - start
    small = env.run_process(timed_put(b"x" * 1024))
    large = env.run_process(timed_put(b"x" * (10 * 1024 * 1024)))
    assert large > small


def test_requests_metered(cloud, s3):
    def scenario():
        yield from s3.put("docs", "k", b"payload")
        yield from s3.get("docs", "k")
    cloud.env.run_process(scenario())
    assert cloud.meter.request_count("s3", "put") == 1
    assert cloud.meter.request_count("s3", "get") == 1
    records = cloud.meter.records("s3")
    assert sum(record.bytes_in for record in records) == 7
    assert sum(record.bytes_out for record in records) == 7


def test_bucket_accounting(cloud, s3):
    def scenario():
        yield from s3.put("docs", "a", b"xx")
        yield from s3.put("docs", "b", b"yyy")
    cloud.env.run_process(scenario())
    assert s3.object_count("docs") == 2
    assert s3.bucket_bytes("docs") == 5

