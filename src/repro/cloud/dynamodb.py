"""Simulated Amazon DynamoDB (paper §6).

The paper stores every index in DynamoDB tables whose items have a
composite primary key: the *hash key* is the index entry key (``key(n)``)
and the *range key* is a UUID generated at indexing time, so concurrent
loader instances never overwrite each other's items.  This model
reproduces the API surface the paper relies on:

- tables with hash or hash+range primary keys;
- items of at most 64 KB holding multi-valued attributes;
- ``get(T, k)`` retrieving *all* items with hash key ``k`` (plus an
  optional range-key condition), ``put``, and ``batchGet`` / ``batchPut``
  variants (100 / 25 operations per API request, §6);
- binary attribute values ("DynamoDB allows storing arbitrary binary
  objects as values, a feature we exploited to efficiently encode our
  index data", §8.4);
- provisioned read/write throughput modelled as shared fluid servers, so
  concurrent writers saturate the table exactly as in Table 4/Figure 10;
- a per-item storage overhead, the "DynamoDB overhead data" of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.config import PerformanceProfile
from repro.errors import (ConditionalCheckFailed, ConfigError, ItemTooLarge,
                          NoSuchTable, RegionUnavailable, TableAlreadyExists,
                          ThroughputExceeded, ValidationError)
from repro.sim import Environment, Meter, ThroughputLimiter
from repro.telemetry.spans import maybe_span

SERVICE = "dynamodb"

#: Items returned per scan page (the real API paginates at 1 MB; a
#: fixed item count keeps the simulated request arithmetic simple).
SCAN_PAGE_SIZE = 100

#: Maximum size of one item, keys plus attributes (§6: "items whose size
#: can be at most 64KB").
MAX_ITEM_BYTES = 64 * 1024
#: Maximum hash key size (§6: "2KB hash key").
MAX_HASH_KEY_BYTES = 2 * 1024
#: Maximum range key size (§6: "1KB range key").
MAX_RANGE_KEY_BYTES = 1 * 1024
#: batchGet limit (§6: "execute 100 get operations through a single API
#: request").
BATCH_GET_LIMIT = 100
#: batchPut limit (§6: "inserts 25 items at a time").
BATCH_PUT_LIMIT = 25

AttrValue = Union[str, bytes]


def value_size(value: AttrValue) -> int:
    """Size in bytes of one attribute value."""
    if isinstance(value, bytes):
        return len(value)
    return len(value.encode("utf-8"))


def attribute_size(name: str, values: Sequence[AttrValue]) -> int:
    """Billable bytes of one attribute, name plus values: the formula
    behind :attr:`DynamoItem.size_bytes` and :meth:`DynamoItem.sized`."""
    size = len(name.encode("utf-8"))
    for value in values:
        size += value_size(value)
    return size


@dataclass(frozen=True)
class DynamoItem:
    """One stored item: primary key plus named, multi-valued attributes."""

    hash_key: str
    range_key: Optional[str]
    attributes: Mapping[str, Tuple[AttrValue, ...]]

    @classmethod
    def sized(cls, hash_key: str, range_key: Optional[str],
              attributes: Mapping[str, Tuple[AttrValue, ...]],
              attribute_bytes: int) -> "DynamoItem":
        """An item born with its size: ``attribute_bytes`` must be the
        sum of :func:`attribute_size` over ``attributes``."""
        item = cls(hash_key, range_key, attributes)
        item._remember_size(attribute_bytes)
        return item

    def _remember_size(self, attribute_bytes: int) -> int:
        size = attribute_bytes + len(self.hash_key.encode("utf-8"))
        if self.range_key is not None:
            size += len(self.range_key.encode("utf-8"))
        object.__setattr__(self, "_size_bytes", size)
        return size

    @property
    def size_bytes(self) -> int:
        """Billable item size: key bytes plus attribute name/value bytes
        (computed on first use unless born :meth:`sized`, kept out of
        the fields; the item is frozen, so it never changes)."""
        try:
            return self._size_bytes
        except AttributeError:
            return self._remember_size(sum(
                attribute_size(name, values)
                for name, values in self.attributes.items()))


@dataclass
class DynamoTable:
    """A table: name, key schema, and the item map."""

    name: str
    has_range_key: bool = True
    #: hash key -> range key (or "" when no range key) -> item
    _items: Dict[str, Dict[str, DynamoItem]] = field(default_factory=dict)

    def item_count(self) -> int:
        """Number of stored items."""
        return sum(len(group) for group in self._items.values())

    def raw_bytes(self) -> int:
        """User-data bytes stored (the 'index content' series of Fig. 8)."""
        return sum(item.size_bytes
                   for group in self._items.values()
                   for item in group.values())

    def hash_keys(self) -> List[str]:
        """All hash keys present in the table, sorted."""
        return sorted(self._items)

    def all_items(self) -> List[DynamoItem]:
        """Every item, sorted by (hash, range) key — meter-free
        inspection (the simulation analogue of a console scan)."""
        return [self._items[hash_key][range_key]
                for hash_key in sorted(self._items)
                for range_key in sorted(self._items[hash_key])]


class DynamoDB:
    """The simulated key-value store holding the warehouse indexes."""

    def __init__(self, env: Environment, meter: Meter,
                 profile: PerformanceProfile) -> None:
        self._env = env
        self._meter = meter
        self._profile = profile
        self._tables: Dict[str, DynamoTable] = {}
        self._write_limiter = ThroughputLimiter(
            env, profile.dynamodb_write_rate_bps, name="dynamodb-write")
        self._read_limiter = ThroughputLimiter(
            env, profile.dynamodb_read_rate_bps, name="dynamodb-read")
        self._faults: Optional[Any] = None
        self._throttle_max_backlog_s: Optional[float] = None
        #: Requests rejected with ``ProvisionedThroughputExceeded`` by
        #: the opt-in throttle mode (monitoring).
        self.throttled_total = 0
        #: Region label reported by outage errors (a provider serving
        #: as a replica relabels its store "secondary").
        self.region = "primary"
        self._available = True
        #: Requests rejected with :class:`RegionUnavailable` while the
        #: region was blacked out (monitoring).
        self.unavailable_total = 0

    def attach_faults(self, injector: Any) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to the data path."""
        self._faults = injector

    # -- region availability (KIND_REGION_OUTAGE chaos) --------------------

    @property
    def available(self) -> bool:
        """Whether the region's store is accepting requests."""
        return self._available

    def set_available(self, available: bool) -> None:
        """Black out (or restore) the region's store.

        Driven by the :class:`~repro.serving.failover.FailoverController`
        interpreting a :class:`~repro.faults.OutageSpec`.  While down,
        every data-path request fails fast with
        :class:`RegionUnavailable` *before* any billing or side effect —
        an unreachable region serves nothing and bills nothing.
        """
        self._available = bool(available)

    def _check_available(self, operation: str) -> None:
        if self._available:
            return
        self.unavailable_total += 1
        hub = getattr(self._env, "telemetry", None)
        if hub is not None:
            hub.counter(
                "region_unavailable_total",
                "Requests rejected during a region outage.",
                ("region",)).inc(region=self.region)
        # Unbilled, like throttles: the request never reached a server.
        self._meter.record(self._env.now, "faults",
                           "dynamodb:region-outage")
        raise RegionUnavailable(self.region, SERVICE, operation)

    def _span(self, operation: str, **attributes: Any):
        """A telemetry span for one data-path request (no-op untraced)."""
        hub = getattr(self._env, "telemetry", None)
        tracer = hub.tracer if hub is not None else None
        return maybe_span(tracer, "dynamodb." + operation, **attributes)

    # -- throttle mode -----------------------------------------------------

    def enable_throttle_mode(self, max_backlog_s: float = 0.5) -> None:
        """Reject instead of queue once capacity is saturated.

        By default the capacity limiters behave as fluid queues: an
        over-driven table simply accrues latency, as in Table 4.  Real
        DynamoDB rejects requests with ``ProvisionedThroughputExceeded``
        once its burst credits run out; this mode reproduces that by
        rejecting any request that would wait more than
        ``max_backlog_s`` seconds on the capacity server, leaving the
        retry/backoff path to spread the load out.
        """
        if max_backlog_s < 0:
            raise ConfigError("max_backlog_s must be non-negative")
        self._throttle_max_backlog_s = max_backlog_s

    def disable_throttle_mode(self) -> None:
        """Restore the default fluid-queueing behaviour."""
        self._throttle_max_backlog_s = None

    @property
    def throttle_mode(self) -> bool:
        """Whether throttle mode is active."""
        return self._throttle_max_backlog_s is not None

    def _check_throttle(self, limiter: ThroughputLimiter) -> None:
        """Raise if throttle mode is on and the backlog is past bound.

        Called after the request latency but *before* the capacity
        consume, so a rejected request leaves no trace on the limiter —
        exactly like a real throttled request that never executes.
        """
        if self._throttle_max_backlog_s is None:
            return
        if limiter.backlog_seconds > self._throttle_max_backlog_s:
            self.throttled_total += 1
            hub = getattr(self._env, "telemetry", None)
            if hub is not None:
                hub.counter(
                    "dynamodb_throttled_total",
                    "Requests rejected by throttle mode.",
                ).inc()
            self._meter.record(self._env.now, "faults", "dynamodb:throttle")
            raise ThroughputExceeded(
                "capacity backlog {:.3f}s exceeds {:.3f}s".format(
                    limiter.backlog_seconds, self._throttle_max_backlog_s))

    # -- administration -------------------------------------------------------

    def create_table(self, name: str, has_range_key: bool = True) -> DynamoTable:
        """Create a table; raises if the name is taken."""
        if name in self._tables:
            raise TableAlreadyExists(name)
        table = DynamoTable(name=name, has_range_key=has_range_key)
        self._tables[name] = table
        return table

    def delete_table(self, name: str) -> None:
        """Drop a table and everything in it."""
        if name not in self._tables:
            raise NoSuchTable(name)
        del self._tables[name]

    def table(self, name: str) -> DynamoTable:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    def table_names(self) -> List[str]:
        """Names of all tables, sorted."""
        return sorted(self._tables)

    # -- validation -------------------------------------------------------------

    def _validate_item(self, table: DynamoTable, item: DynamoItem) -> int:
        """Check the §6 limits; returns the item's size in bytes."""
        if len(item.hash_key.encode("utf-8")) > MAX_HASH_KEY_BYTES:
            raise ValidationError(
                "hash key exceeds {} bytes".format(MAX_HASH_KEY_BYTES))
        if table.has_range_key:
            if item.range_key is None:
                raise ValidationError(
                    "table {!r} requires a range key".format(table.name))
            if len(item.range_key.encode("utf-8")) > MAX_RANGE_KEY_BYTES:
                raise ValidationError(
                    "range key exceeds {} bytes".format(MAX_RANGE_KEY_BYTES))
        elif item.range_key is not None:
            raise ValidationError(
                "table {!r} has no range key".format(table.name))
        size = item.size_bytes
        if size > MAX_ITEM_BYTES:
            raise ItemTooLarge(
                "item of {} bytes exceeds the {} byte limit".format(
                    size, MAX_ITEM_BYTES))
        return size

    # -- writes -------------------------------------------------------------------

    def _store(self, table: DynamoTable, item: DynamoItem) -> None:
        group = table._items.setdefault(item.hash_key, {})
        # Same primary key -> the new item completely replaces the old
        # one (§6), which is exactly what the UUID range keys prevent.
        group[item.range_key or ""] = item

    def _check_condition(self, table: DynamoTable, item: DynamoItem,
                         expected: Mapping[str, Optional[Tuple[AttrValue,
                                                               ...]]]) -> None:
        """Evaluate a conditional put's expectations against the store.

        ``expected`` maps attribute names to the exact value tuple the
        stored item must currently hold, or to ``None`` meaning "the
        attribute must not exist" (which also holds when the item itself
        is absent).  The check-and-store pair runs with no intervening
        ``yield``, so it is atomic in simulated time — the property the
        epoch-manifest flip is built on.
        """
        group = table._items.get(item.hash_key, {})
        current = group.get(item.range_key or "")
        for name, want in expected.items():
            have = (current.attributes.get(name)
                    if current is not None else None)
            if want is None:
                if have is not None:
                    raise ConditionalCheckFailed(
                        "attribute {!r} unexpectedly present".format(name))
            elif have is None or tuple(have) != tuple(want):
                raise ConditionalCheckFailed(
                    "attribute {!r} is {!r}, expected {!r}".format(
                        name, have, want))

    def put(self, table_name: str, item: DynamoItem,
            expected: Optional[Mapping[str, Optional[Tuple[AttrValue, ...]]]]
            = None) -> Generator[Any, Any, None]:
        """Insert ``item``, replacing any item with the same primary key.

        With ``expected``, the put is *conditional*: it applies only if
        every named attribute of the currently stored item matches the
        expectation (``None`` = must be absent), else it raises
        :class:`ConditionalCheckFailed` and writes nothing.
        """
        self._check_available("put")
        table = self.table(table_name)
        size = self._validate_item(table, item)
        with self._span("put", table=table_name):
            if self._faults is not None:
                yield from self._faults.perturb("put")
            yield self._env.timeout(self._profile.dynamodb_request_latency_s)
            self._check_throttle(self._write_limiter)
            yield self._write_limiter.consume(size)
            if expected is not None:
                # A failed conditional write is still a billed request
                # (DynamoDB consumes write capacity for the check).
                try:
                    self._check_condition(table, item, expected)
                except ConditionalCheckFailed:
                    self._meter.record(self._env.now, SERVICE, "put",
                                       bytes_in=size)
                    raise
            self._store(table, item)
            self._meter.record(self._env.now, SERVICE, "put",
                               bytes_in=size)

    def delete_item(self, table_name: str, hash_key: str,
                    range_key: Optional[str] = None,
                    ) -> Generator[Any, Any, bool]:
        """Delete one item by primary key; returns whether it existed.

        Deleting a missing item is not an error (as on AWS); the
        request is billed either way.
        """
        self._check_available("delete_item")
        table = self.table(table_name)
        with self._span("delete", table=table_name):
            if self._faults is not None:
                yield from self._faults.perturb("delete_item")
            yield self._env.timeout(self._profile.dynamodb_request_latency_s)
            self._check_throttle(self._write_limiter)
            group = table._items.get(hash_key)
            existed = group is not None and (range_key or "") in group
            nbytes = group[range_key or ""].size_bytes if existed else 0
            yield self._write_limiter.consume(max(1, nbytes))
            if existed:
                del group[range_key or ""]
                if not group:
                    del table._items[hash_key]
            self._meter.record(self._env.now, SERVICE, "delete",
                               bytes_in=nbytes)
        return existed

    def batch_put(self, table_name: str, items: Sequence[DynamoItem],
                  ) -> Generator[Any, Any, None]:
        """Insert up to 25 items through a single API request.

        Billing note: each inserted row is a billable put operation
        (|op(D, I)| in §7.1 counts rows), but the fixed request latency
        is paid once — which is why the loader batches (§8.1).
        """
        if not items:
            raise ValidationError("batch_put requires at least one item")
        if len(items) > BATCH_PUT_LIMIT:
            raise ValidationError(
                "batch_put accepts at most {} items, got {}".format(
                    BATCH_PUT_LIMIT, len(items)))
        self._check_available("batch_put")
        table = self.table(table_name)
        total = 0
        for item in items:
            total += self._validate_item(table, item)
        with self._span("batch_put", table=table_name, items=len(items)):
            if self._faults is not None:
                yield from self._faults.perturb("batch_put")
            yield self._env.timeout(self._profile.dynamodb_request_latency_s)
            self._check_throttle(self._write_limiter)
            yield self._write_limiter.consume(total)
            for item in items:
                self._store(table, item)
            self._meter.record(self._env.now, SERVICE, "put",
                               count=len(items), bytes_in=total)

    # -- reads ---------------------------------------------------------------------

    def _collect(self, table: DynamoTable, hash_key: str,
                 condition: Optional[Callable[[str], bool]],
                 ) -> List[DynamoItem]:
        group = table._items.get(hash_key, {})
        if condition is None:
            return [group[rk] for rk in sorted(group)]
        return [group[rk] for rk in sorted(group) if condition(rk)]

    def get(self, table_name: str, hash_key: str,
            condition: Optional[Callable[[str], bool]] = None,
            ) -> Generator[Any, Any, List[DynamoItem]]:
        """Retrieve all items with ``hash_key`` (§6 ``get(T, k)``).

        ``condition``, if given, filters on the range key (``get(T,k,c)``).
        Returns an empty list for unknown keys, like a real query.
        """
        self._check_available("get")
        table = self.table(table_name)
        with self._span("get", table=table_name):
            if self._faults is not None:
                yield from self._faults.perturb("get")
            items = self._collect(table, hash_key, condition)
            nbytes = sum(item.size_bytes for item in items)
            yield self._env.timeout(self._profile.dynamodb_request_latency_s)
            self._check_throttle(self._read_limiter)
            yield self._read_limiter.consume(nbytes)
            self._meter.record(self._env.now, SERVICE, "get",
                               bytes_out=nbytes)
        return items

    def batch_get(self, table_name: str, hash_keys: Sequence[str],
                  ) -> Generator[Any, Any, Dict[str, List[DynamoItem]]]:
        """Run up to 100 ``get`` operations in a single API request."""
        if not hash_keys:
            raise ValidationError("batch_get requires at least one key")
        if len(hash_keys) > BATCH_GET_LIMIT:
            raise ValidationError(
                "batch_get accepts at most {} keys, got {}".format(
                    BATCH_GET_LIMIT, len(hash_keys)))
        self._check_available("batch_get")
        table = self.table(table_name)
        with self._span("batch_get", table=table_name,
                        keys=len(hash_keys)):
            if self._faults is not None:
                yield from self._faults.perturb("batch_get")
            result: Dict[str, List[DynamoItem]] = {}
            nbytes = 0
            for key in hash_keys:
                items = self._collect(table, key, None)
                result[key] = items
                nbytes += sum(item.size_bytes for item in items)
            yield self._env.timeout(self._profile.dynamodb_request_latency_s)
            self._check_throttle(self._read_limiter)
            yield self._read_limiter.consume(nbytes)
            self._meter.record(self._env.now, SERVICE, "get",
                               count=len(hash_keys), bytes_out=nbytes)
        return result

    def scan(self, table_name: str,
             ) -> Generator[Any, Any, List[DynamoItem]]:
        """Sequentially read every item in the table.

        Pages of :data:`SCAN_PAGE_SIZE` items, each page a billed
        request with its own latency and read-capacity consumption —
        which is what makes scrubbing a priced operation rather than a
        free inspection (contrast :meth:`DynamoTable.all_items`).
        """
        self._check_available("scan")
        table = self.table(table_name)
        items = table.all_items()
        pages = [items[i:i + SCAN_PAGE_SIZE]
                 for i in range(0, len(items), SCAN_PAGE_SIZE)] or [[]]
        with self._span("scan", table=table_name, pages=len(pages)):
            for page in pages:
                self._check_available("scan")
                if self._faults is not None:
                    yield from self._faults.perturb("scan")
                nbytes = sum(item.size_bytes for item in page)
                yield self._env.timeout(
                    self._profile.dynamodb_request_latency_s)
                self._check_throttle(self._read_limiter)
                yield self._read_limiter.consume(max(1, nbytes))
                self._meter.record(self._env.now, SERVICE, "scan",
                                   count=max(1, len(page)), bytes_out=nbytes)
        return items

    # -- damage surface (fault injection only) ------------------------------------

    def corrupt_attribute(self, table_name: str, hash_key: str,
                          range_key: Optional[str], attr: str,
                          byte_index: int = 0, bit: int = 0) -> bool:
        """Flip one bit of a stored attribute value, in place.

        The simulation analogue of silent storage corruption — no
        request, no metering, no latency, invisible until something
        reads the item back.  Used only by the fault injector's
        ``corrupt-item`` kind; returns whether an attribute was hit.
        """
        table = self.table(table_name)
        group = table._items.get(hash_key, {})
        item = group.get(range_key or "")
        if item is None or attr not in item.attributes:
            return False
        values = item.attributes[attr]
        if not values:
            return False
        value = values[0]
        raw = bytearray(value if isinstance(value, bytes)
                        else value.encode("utf-8"))
        if not raw:
            return False
        raw[byte_index % len(raw)] ^= 1 << (bit % 8)
        mutated = (bytes(raw) if isinstance(value, bytes)
                   else bytes(raw).decode("utf-8", errors="replace"))
        attributes = dict(item.attributes)
        attributes[attr] = (mutated,) + tuple(values[1:])
        group[range_key or ""] = DynamoItem(
            hash_key=item.hash_key, range_key=item.range_key,
            attributes=attributes)
        return True

    def drop_partition(self, table_name: str, hash_key: str) -> int:
        """Silently lose every item under one hash key.

        Models the loss of a storage partition; like
        :meth:`corrupt_attribute` this bypasses the request path
        entirely.  Returns the number of items dropped.
        """
        table = self.table(table_name)
        group = table._items.pop(hash_key, None)
        return len(group) if group else 0

    # -- storage accounting (Figure 8) -------------------------------------------

    def raw_bytes(self, table_names: Optional[Iterable[str]] = None) -> int:
        """User-data bytes across the given tables (default: all)."""
        names = list(table_names) if table_names is not None else self.table_names()
        return sum(self.table(n).raw_bytes() for n in names)

    def overhead_bytes(self, table_names: Optional[Iterable[str]] = None) -> int:
        """DynamoDB's own per-item storage overhead (``ovh(D, I)``, §7.1)."""
        names = list(table_names) if table_names is not None else self.table_names()
        per_item = self._profile.dynamodb_overhead_bytes_per_item
        return sum(self.table(n).item_count() * per_item for n in names)

    def stored_bytes(self, table_names: Optional[Iterable[str]] = None) -> int:
        """Total billable storage: raw data plus overhead (``s(D, I)``)."""
        return self.raw_bytes(table_names) + self.overhead_bytes(table_names)

    @property
    def write_limiter(self) -> ThroughputLimiter:
        """The shared write-capacity server (exposed for saturation tests)."""
        return self._write_limiter

    @property
    def read_limiter(self) -> ThroughputLimiter:
        """The shared read-capacity server."""
        return self._read_limiter
