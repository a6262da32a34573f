"""Simulated Amazon SimpleDB — the baseline key-value store of [8].

The paper's earlier version ("Building Large XML Stores in the Amazon
Cloud", DMC 2012) stored its indexes in SimpleDB and had to work around
its limitations; the present paper's Tables 7 and 8 quantify how much
DynamoDB improved indexing and querying.  To regenerate those tables we
model SimpleDB with its salient restrictions:

- *domains* (tables) of items addressed by an item name (no range keys);
- attribute values limited to 1 024 bytes of **text** (no binary blobs,
  so compact binary ID encodings are unavailable — §8.4 credits much of
  DynamoDB's win to exactly this);
- at most 256 attribute name/value pairs per item;
- ``batchPut`` of up to 25 items;
- substantially lower throughput and higher per-request latency than
  DynamoDB ("DynamoDB has a shorter response time and can handle more
  concurrent requests than SimpleDB", §8.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.config import PerformanceProfile
from repro.errors import (AttributeTooLarge, NoSuchTable, TableAlreadyExists,
                          TooManyAttributes, ValidationError)
from repro.sim import Environment, Meter, ThroughputLimiter

SERVICE = "simpledb"

#: SimpleDB limit: 1 024 bytes per attribute value.
MAX_VALUE_BYTES = 1024
#: SimpleDB limit: 256 attribute pairs per item.
MAX_ATTRIBUTES_PER_ITEM = 256
#: batchPut limit.
BATCH_PUT_LIMIT = 25


@dataclass(frozen=True)
class SimpleDBItem:
    """One item: a name plus (attribute name, value) pairs, text only."""

    name: str
    attributes: Tuple[Tuple[str, str], ...]

    @property
    def size_bytes(self) -> int:
        """Billable item size: name plus attribute name/value bytes
        (computed on first use; the item is frozen)."""
        try:
            return self._size_bytes
        except AttributeError:
            size = len(self.name.encode("utf-8"))
            for attr_name, attr_value in self.attributes:
                size += len(attr_name.encode("utf-8"))
                size += len(attr_value.encode("utf-8"))
            object.__setattr__(self, "_size_bytes", size)
            return size


@dataclass
class SimpleDBDomain:
    """A domain: the SimpleDB analogue of a table."""

    name: str
    _items: Dict[str, SimpleDBItem] = field(default_factory=dict)

    def item_count(self) -> int:
        """Number of stored items."""
        return len(self._items)

    def raw_bytes(self) -> int:
        """User-data bytes stored across the given domains."""
        return sum(item.size_bytes for item in self._items.values())

    def all_items(self) -> List[SimpleDBItem]:
        """Every item, sorted by name — meter-free inspection."""
        return [self._items[name] for name in sorted(self._items)]


class SimpleDB:
    """The simulated legacy key-value store."""

    def __init__(self, env: Environment, meter: Meter,
                 profile: PerformanceProfile) -> None:
        self._env = env
        self._meter = meter
        self._profile = profile
        self._domains: Dict[str, SimpleDBDomain] = {}
        self._write_limiter = ThroughputLimiter(
            env, profile.simpledb_write_rate_bps, name="simpledb-write")
        self._read_limiter = ThroughputLimiter(
            env, profile.simpledb_read_rate_bps, name="simpledb-read")
        self._faults: Optional[Any] = None

    def attach_faults(self, injector: Any) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to the data path."""
        self._faults = injector

    # -- administration --------------------------------------------------------

    def create_domain(self, name: str) -> SimpleDBDomain:
        """Create a domain; raises if the name is taken."""
        if name in self._domains:
            raise TableAlreadyExists(name)
        domain = SimpleDBDomain(name=name)
        self._domains[name] = domain
        return domain

    def domain(self, name: str) -> SimpleDBDomain:
        """Look a domain up by name."""
        try:
            return self._domains[name]
        except KeyError:
            raise NoSuchTable(name) from None

    def domain_names(self) -> List[str]:
        """Names of all domains, sorted."""
        return sorted(self._domains)

    # -- validation ---------------------------------------------------------------

    def _validate(self, item: SimpleDBItem) -> None:
        if len(item.attributes) > MAX_ATTRIBUTES_PER_ITEM:
            raise TooManyAttributes(
                "item {!r} has {} attributes (limit {})".format(
                    item.name, len(item.attributes), MAX_ATTRIBUTES_PER_ITEM))
        for attr_name, attr_value in item.attributes:
            if not isinstance(attr_value, str):
                raise ValidationError(
                    "SimpleDB values must be text, got {!r}".format(
                        type(attr_value)))
            if len(attr_value.encode("utf-8")) > MAX_VALUE_BYTES:
                raise AttributeTooLarge(
                    "attribute {!r} value exceeds {} bytes".format(
                        attr_name, MAX_VALUE_BYTES))

    # -- writes ----------------------------------------------------------------------

    def _store(self, domain: SimpleDBDomain, item: SimpleDBItem,
               replace: bool) -> None:
        if replace or item.name not in domain._items:
            domain._items[item.name] = item
        else:
            merged = tuple(domain._items[item.name].attributes) + item.attributes
            if len(merged) > MAX_ATTRIBUTES_PER_ITEM:
                raise TooManyAttributes(
                    "merged item {!r} exceeds the attribute limit".format(
                        item.name))
            domain._items[item.name] = SimpleDBItem(item.name, merged)

    def put(self, domain_name: str, item: SimpleDBItem, replace: bool = False,
            ) -> Generator[Any, Any, None]:
        """Insert ``item``; by default new attributes merge into the item."""
        domain = self.domain(domain_name)
        self._validate(item)
        if self._faults is not None:
            yield from self._faults.perturb("put")
        yield self._env.timeout(self._profile.simpledb_request_latency_s)
        yield self._write_limiter.consume(
            item.size_bytes * self._profile.simpledb_text_expansion)
        self._store(domain, item, replace)
        self._meter.record(self._env.now, SERVICE, "put",
                           bytes_in=item.size_bytes)

    def batch_put(self, domain_name: str, items: Sequence[SimpleDBItem],
                  ) -> Generator[Any, Any, None]:
        """Insert up to 25 items in one API request."""
        if not items:
            raise ValidationError("batch_put requires at least one item")
        if len(items) > BATCH_PUT_LIMIT:
            raise ValidationError(
                "batch_put accepts at most {} items, got {}".format(
                    BATCH_PUT_LIMIT, len(items)))
        domain = self.domain(domain_name)
        total = 0
        for item in items:
            self._validate(item)
            total += item.size_bytes
        if self._faults is not None:
            yield from self._faults.perturb("batch_put")
        yield self._env.timeout(self._profile.simpledb_request_latency_s)
        yield self._write_limiter.consume(
            total * self._profile.simpledb_text_expansion)
        for item in items:
            self._store(domain, item, False)
        self._meter.record(self._env.now, SERVICE, "put",
                           count=len(items), bytes_in=total)

    # -- reads ------------------------------------------------------------------------

    def get(self, domain_name: str, item_name: str,
            ) -> Generator[Any, Any, Optional[SimpleDBItem]]:
        """Retrieve one item by name (None when absent)."""
        domain = self.domain(domain_name)
        if self._faults is not None:
            yield from self._faults.perturb("get")
        item = domain._items.get(item_name)
        nbytes = item.size_bytes if item else 0
        yield self._env.timeout(self._profile.simpledb_request_latency_s)
        yield self._read_limiter.consume(nbytes)
        self._meter.record(self._env.now, SERVICE, "get", bytes_out=nbytes)
        return item

    def select_prefix(self, domain_name: str, prefix: str,
                      ) -> Generator[Any, Any, List[SimpleDBItem]]:
        """Retrieve all items whose name starts with ``prefix``.

        This stands in for the ``select`` queries [8] used to work around
        per-item size limits by sharding an index entry over several
        items named ``key#0``, ``key#1``...
        """
        domain = self.domain(domain_name)
        if self._faults is not None:
            yield from self._faults.perturb("select_prefix")
        items = [domain._items[name] for name in sorted(domain._items)
                 if name.startswith(prefix)]
        nbytes = sum(item.size_bytes for item in items)
        yield self._env.timeout(self._profile.simpledb_request_latency_s)
        yield self._read_limiter.consume(nbytes)
        self._meter.record(self._env.now, SERVICE, "select", bytes_out=nbytes)
        return items

    # -- storage accounting --------------------------------------------------------

    def raw_bytes(self, domain_names: Optional[Iterable[str]] = None) -> int:
        """User-data bytes stored across the given domains."""
        names = (list(domain_names) if domain_names is not None
                 else self.domain_names())
        return sum(self.domain(n).raw_bytes() for n in names)

    def overhead_bytes(self, domain_names: Optional[Iterable[str]] = None) -> int:
        """SimpleDB's per-item storage overhead (``ovh``)."""
        names = (list(domain_names) if domain_names is not None
                 else self.domain_names())
        per_item = self._profile.simpledb_overhead_bytes_per_item
        return sum(self.domain(n).item_count() * per_item for n in names)

    def stored_bytes(self, domain_names: Optional[Iterable[str]] = None) -> int:
        """Total billable storage: raw data plus overhead."""
        return self.raw_bytes(domain_names) + self.overhead_bytes(domain_names)
