"""Epoch-aware read-through cache for index look-ups.

Repeated workload runs (the paper's amortisation experiment, Figure
13) re-issue the same index gets and are billed for them every time;
Airphant's observation is that a small host-side cache in front of
cloud storage removes exactly those repeat bills.  The cache maps
``(logical table, hash key, epoch)`` to the merged ``URI → payload``
map a read returns, under a byte budget with LRU eviction.

Coherence comes from the crash-consistency layer, not from timeouts:

- physical tables are immutable between manifest flips (builds write
  fresh epoch-scoped tables), so an entry can never be stale *within*
  an epoch — except for scrub repairs, whose writes :meth:`discard`
  the affected keys write-through;
- a manifest flip publishes a new epoch into fresh physical tables, so
  pre-flip entries can never be *served* against it — the warehouse
  invalidates just the tables named in the superseded and newly
  committed records' routing metadata (:meth:`invalidate_tables`),
  reclaiming dead-weight budget without touching other indexes'
  entries.  :meth:`invalidate_all` remains the blunt instrument for
  tear-downs.

Simulated DynamoDB latency and billing accrue only on misses: the
cache lives host-side and costs no simulated time, mirroring a RAM
cache in front of a remote store.

Entries are the read-only payload views the backend store hands out
(see :class:`~repro.indexing.mapper.IndexStore`), stored and served as
they are: a view refuses mutation, so no caller can poison an entry.

:class:`AnswerMemo` remembers what a look-up planner computed from a
read, keyed by what was computed plus the identities of the views it
was computed from.  A view keeps its identity exactly as long as the
stored items it was merged from do, so a repair, a corruption or a flip
to fresh tables means new views and a new question: a stale answer can
no longer be *asked for*.  The memo is bounded by count, outside any
cache's byte budget: charging it would change which entries are
evicted, and so every simulated get after.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.xmldb.blocks import IDBlock

#: Fixed per-entry bookkeeping charge against the byte budget (key
#: strings, dict overhead) so even empty payload maps have a weight.
ENTRY_OVERHEAD_BYTES = 64

#: Most look-up answers an :class:`AnswerMemo` remembers (a count, not
#: bytes: see the module docstring); the least recently asked goes first.
ANSWER_MEMO_ENTRIES = 256


def _value_bytes(value: Any) -> int:
    """Approximate in-memory payload bytes of one cached value."""
    if value is None:
        return 1
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return sum(_value_bytes(part) for part in value)
    if isinstance(value, IDBlock):
        # ID payloads: encoded bytes of a wrapped blob, column bytes
        # otherwise (fixed when the block is made).
        return value.nbytes
    # Anything else (an int, say) counts as fixed-size.
    return 16


def payload_weight(payloads: Mapping[str, Any]) -> int:
    """Byte-budget weight of one cached ``URI → payload`` map."""
    weight = ENTRY_OVERHEAD_BYTES
    for uri, payload in payloads.items():
        weight += len(uri.encode("utf-8")) + _value_bytes(payload)
    return weight


class IndexCache:
    """Bounded LRU over index reads, keyed ``(tenant, table, key, epoch)``.

    ``max_bytes`` is the budget from configuration
    (:class:`~repro.store.config.StoreConfig`); entries larger than the
    whole budget are simply not cached.  Negative results (a key absent
    from the index: an empty payload map) are cached too — repeat
    look-ups of a missing key are billed requests like any other.

    The tenant dimension (default ``""``, the single-owner namespace)
    keeps invalidation exact under multi-tenancy: two tenants' entries
    for the same logical table never collide, and a tenant tear-down
    (:meth:`invalidate_tenant`) cannot touch anyone else's budget.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ConfigError(
                "IndexCache needs a positive byte budget, got {}".format(
                    max_bytes))
        self.max_bytes = max_bytes
        #: cache key -> (payload map, weight).
        self._entries: "OrderedDict[Tuple[str, str, str, int], " \
                       "Tuple[Mapping[str, Any], int]]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- read path ---------------------------------------------------------

    def get(self, table: str, key: str, epoch: int,
            tenant: str = "") -> Optional[Mapping[str, Any]]:
        """The cached payload map, or None on a miss.

        A hit refreshes LRU recency.  Callers get the stored map, a
        read-only view.
        """
        entry = self._entries.get((tenant, table, key, epoch))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((tenant, table, key, epoch))
        self.hits += 1
        return entry[0]

    def put(self, table: str, key: str, epoch: int,
            payloads: Mapping[str, Any], tenant: str = "") -> None:
        """Store one read result, evicting LRU entries past the budget."""
        cache_key = (tenant, table, key, epoch)
        previous = self._entries.pop(cache_key, None)
        if previous is not None:
            self.current_bytes -= previous[1]
        weight = payload_weight(payloads)
        if weight > self.max_bytes:
            return  # larger than the whole budget: not cacheable
        self.puts += 1
        self._entries[cache_key] = (payloads, weight)
        self.current_bytes += weight
        while self.current_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= evicted[1]
            self.evictions += 1

    # -- coherence ---------------------------------------------------------

    def discard(self, table: str, key: str, epoch: int,
                tenant: str = "") -> None:
        """Drop one entry (write-through invalidation on index writes)."""
        entry = self._entries.pop((tenant, table, key, epoch), None)
        if entry is not None:
            self.current_bytes -= entry[1]
            self.invalidations += 1

    def invalidate_table(self, table: str) -> int:
        """Drop every entry of one logical table (any epoch, any tenant).

        Used when a table is quarantined (marked suspect) so a later
        repair is re-read rather than masked by pre-damage entries.
        Returns the number of entries dropped.
        """
        doomed = [cache_key for cache_key in self._entries
                  if cache_key[1] == table]
        for cache_key in doomed:
            self.current_bytes -= self._entries.pop(cache_key)[1]
        self.invalidations += len(doomed)
        return len(doomed)

    def invalidate_tenant(self, tenant: str) -> int:
        """Drop every entry of one tenant namespace (tear-down hook).

        Exact by construction: keys carry the tenant, so no other
        tenant's entries can be touched.  Returns the number dropped.
        """
        doomed = [cache_key for cache_key in self._entries
                  if cache_key[0] == tenant]
        for cache_key in doomed:
            self.current_bytes -= self._entries.pop(cache_key)[1]
        self.invalidations += len(doomed)
        return len(doomed)

    def invalidate_tables(self, tables: Any) -> int:
        """Drop every entry of the named logical tables (any epoch).

        The manifest-flip coherence hook: the warehouse passes the
        physical tables of the superseded and newly committed epoch
        records, so entries for unrelated indexes survive the flip.
        Returns the number of entries dropped.
        """
        doomed = set(tables)
        return sum(self.invalidate_table(table) for table in doomed)

    def invalidate_all(self) -> int:
        """Wholesale invalidation (deployment tear-down hook).

        Returns the number of entries dropped.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.current_bytes = 0
        self.invalidations += dropped
        return dropped

    # -- introspection -----------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        """Hits over look-ups (0.0 before any look-up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """A snapshot for monitoring reports and bench output."""
        return {
            "entries": float(len(self._entries)),
            "bytes": float(self.current_bytes),
            "max_bytes": float(self.max_bytes),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_ratio": self.hit_ratio,
            "puts": float(self.puts),
            "evictions": float(self.evictions),
            "invalidations": float(self.invalidations),
        }


class AnswerMemo:
    """Look-up answers by question, bounded by count (see the module
    docstring); one per warehouse, shared by every router it makes.

    ``hits`` counts answers replayed, ``misses`` answers computed and
    kept.  Every asker of a question gets the same object, so an answer
    must be immutable.
    """

    def __init__(self) -> None:
        self._answers: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._answers)

    def get(self, question: Any) -> Any:
        """The answer kept for ``question`` (refreshing its recency), or
        ``None``."""
        found = self._answers.get(question)
        if found is not None:
            self._answers.move_to_end(question)
            self.hits += 1
        return found

    def put(self, question: Any, answer: Any) -> None:
        """Keep ``answer``; past the bound the least recently asked
        goes."""
        self._answers[question] = answer
        self.misses += 1
        if len(self._answers) > ANSWER_MEMO_ENTRIES:
            self._answers.popitem(last=False)
