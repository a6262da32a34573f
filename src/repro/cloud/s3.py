"""Simulated Amazon Simple Storage Service (S3).

The paper stores the XML corpus as objects in a single S3 bucket (§6:
bucket count does not affect performance) and also writes query results
back to S3.  This model provides bucket/object semantics with
user-defined metadata and simple versioning, a per-request latency plus
bandwidth-proportional transfer time, and metering of every request for
the cost model (``STput$`` / ``STget$`` / ``ST$m,GB`` in §7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.config import PerformanceProfile
from repro.errors import (BucketAlreadyExists, NoSuchBucket,
                          NoSuchKey)
from repro.sim import Environment, Meter

SERVICE = "s3"


@dataclass
class S3Object:
    """One stored object: payload bytes plus metadata and a version id."""

    key: str
    data: bytes
    metadata: Dict[str, str] = field(default_factory=dict)
    version_id: int = 1
    last_modified: float = 0.0

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.data)


class _Bucket:
    """Internal bucket: a named map from key to object."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.objects: Dict[str, S3Object] = {}

    @property
    def total_bytes(self) -> int:
        return sum(obj.size for obj in self.objects.values())


class S3:
    """The simulated file store.

    All data-path operations are generator methods executed inside a
    simulated process (``yield from s3.put(...)``).  Administrative
    operations (bucket creation) are immediate, mirroring how bucket
    management sits outside the paper's data path and cost model.
    """

    def __init__(self, env: Environment, meter: Meter,
                 profile: PerformanceProfile) -> None:
        self._env = env
        self._meter = meter
        self._profile = profile
        self._buckets: Dict[str, _Bucket] = {}
        self._faults: Optional[Any] = None

    def attach_faults(self, injector: Any) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to the data path."""
        self._faults = injector

    def _span(self, operation: str, **attributes: Any):
        """A telemetry span for one data-path request."""
        return self._env.telemetry.tracer.span("s3." + operation,
                                               **attributes)

    # -- bucket administration (immediate, unmetered) -----------------------

    def create_bucket(self, name: str) -> None:
        """Create a bucket; raises if the name is taken."""
        if name in self._buckets:
            raise BucketAlreadyExists(name)
        self._buckets[name] = _Bucket(name)

    def bucket_names(self) -> List[str]:
        """Names of all buckets, sorted."""
        return sorted(self._buckets)

    def _bucket(self, name: str) -> _Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise NoSuchBucket(name) from None

    # -- data path (metered generator methods) -------------------------------

    def _transfer_delay(self, nbytes: int) -> float:
        return (self._profile.s3_request_latency_s
                + nbytes / self._profile.s3_bandwidth_bps)

    def put(self, bucket: str, key: str, data: bytes,
            metadata: Optional[Dict[str, str]] = None,
            ) -> Generator[Any, Any, S3Object]:
        """Store ``data`` under ``key``; overwrites bump the version id."""
        target = self._bucket(bucket)
        if not isinstance(data, bytes):
            raise TypeError("S3 stores bytes, got {!r}".format(type(data)))
        with self._span("put", key=key):
            if self._faults is not None:
                yield from self._faults.perturb("put")
            yield self._env.timeout(self._transfer_delay(len(data)))
            previous = target.objects.get(key)
            version = previous.version_id + 1 if previous else 1
            obj = S3Object(key=key, data=data, metadata=dict(metadata or {}),
                           version_id=version, last_modified=self._env.now)
            target.objects[key] = obj
            self._meter.record(self._env.now, SERVICE, "put",
                               bytes_in=len(data))
        return obj

    def get(self, bucket: str, key: str) -> Generator[Any, Any, bytes]:
        """Retrieve the payload stored under ``key``."""
        target = self._bucket(bucket)
        with self._span("get", key=key):
            if self._faults is not None:
                yield from self._faults.perturb("get")
            try:
                obj = target.objects[key]
            except KeyError:
                raise NoSuchKey("{}/{}".format(bucket, key)) from None
            yield self._env.timeout(self._transfer_delay(obj.size))
            self._meter.record(self._env.now, SERVICE, "get",
                               bytes_out=obj.size)
        return obj.data

    def head(self, bucket: str, key: str) -> Generator[Any, Any, S3Object]:
        """Retrieve object metadata without the payload."""
        target = self._bucket(bucket)
        with self._span("head", key=key):
            if self._faults is not None:
                yield from self._faults.perturb("head")
            try:
                obj = target.objects[key]
            except KeyError:
                raise NoSuchKey("{}/{}".format(bucket, key)) from None
            yield self._env.timeout(self._profile.s3_request_latency_s)
            self._meter.record(self._env.now, SERVICE, "head")
        return obj

    def delete(self, bucket: str, key: str) -> Generator[Any, Any, None]:
        """Delete an object (idempotent, as in real S3)."""
        target = self._bucket(bucket)
        with self._span("delete", key=key):
            if self._faults is not None:
                yield from self._faults.perturb("delete")
            yield self._env.timeout(self._profile.s3_request_latency_s)
            target.objects.pop(key, None)
            self._meter.record(self._env.now, SERVICE, "delete")

    # -- synchronous inspection (for cost model and tests) --------------------

    def object_count(self, bucket: str) -> int:
        """Number of objects in ``bucket`` (no latency, unmetered)."""
        return len(self._bucket(bucket).objects)

    def bucket_bytes(self, bucket: str) -> int:
        """Total payload bytes stored in ``bucket``."""
        return self._bucket(bucket).total_bytes

    def has_object(self, bucket: str, key: str) -> bool:
        """Whether ``key`` exists in ``bucket``."""
        return key in self._bucket(bucket).objects

    def peek(self, bucket: str, key: str) -> S3Object:
        """Direct object access for assertions (no latency, unmetered)."""
        try:
            return self._bucket(bucket).objects[key]
        except KeyError:
            raise NoSuchKey("{}/{}".format(bucket, key)) from None
