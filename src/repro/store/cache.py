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

The cache also remembers *answers* — what a look-up planner computed
from a read whose every key was a hit — and their coherence is the
entries' own: each stored entry carries the ordinal of its ``put``
(unique, never reused) and an answer is keyed by what was computed plus
the ordinals of the entries read.  A repair's :meth:`~IndexCache.discard`,
an eviction, an invalidation or a flip to fresh tables means a re-``put``
under new ordinals, so a stale answer can no longer be *asked for*.  The
table is bounded by count, outside the byte budget: charging it would
change which entries are evicted, and so every simulated get after.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.xmldb.blocks import IDBlock

#: Fixed per-entry bookkeeping charge against the byte budget (key
#: strings, dict overhead) so even empty payload maps have a weight.
ENTRY_OVERHEAD_BYTES = 64

#: Most look-up answers remembered (a count, not bytes: see the module
#: docstring); the least recently asked goes first.
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
        # ID payloads: encoded bytes while lazy, column bytes once
        # decoded.
        return value.nbytes
    # Anything else (an int, say) counts as fixed-size.
    return 16


def payload_weight(payloads: Dict[str, Any]) -> int:
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
        #: cache key -> (payload map, weight, ordinal of its put).
        self._entries: "OrderedDict[Tuple[str, str, str, int], " \
                       "Tuple[Dict[str, Any], int, int]]" = OrderedDict()
        self._answers: "OrderedDict[Any, Any]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        #: Answers replayed / computed (not in :meth:`stats`: it is
        #: rendered into reports and bench artefacts).
        self.answer_hits = 0
        self.answer_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- read path ---------------------------------------------------------

    def get(self, table: str, key: str, epoch: int,
            tenant: str = "") -> Optional[Dict[str, Any]]:
        """The cached payload map, or None on a miss.

        A hit refreshes LRU recency.  Callers get the stored dict; the
        router hands callers a shallow copy so plan operators can never
        mutate the cached entry.
        """
        entry = self._entries.get((tenant, table, key, epoch))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((tenant, table, key, epoch))
        self.hits += 1
        return entry[0]

    def put(self, table: str, key: str, epoch: int,
            payloads: Dict[str, Any], tenant: str = "") -> None:
        """Store one read result, evicting LRU entries past the budget."""
        cache_key = (tenant, table, key, epoch)
        previous = self._entries.pop(cache_key, None)
        if previous is not None:
            self.current_bytes -= previous[1]
        weight = payload_weight(payloads)
        if weight > self.max_bytes:
            return  # larger than the whole budget: not cacheable
        self.puts += 1
        self._entries[cache_key] = (payloads, weight, self.puts)
        self.current_bytes += weight
        while self.current_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self.current_bytes -= evicted[1]
            self.evictions += 1

    # -- answers -----------------------------------------------------------

    def ordinals(self, table: str, keys: Any, epoch: int,
                 tenant: str = "") -> Optional[Tuple[int, ...]]:
        """The put ordinals of the entries under ``keys``, in order —
        a peek: no hit or miss counted, no recency refreshed; ``None``
        if any key has no entry."""
        entries = [self._entries.get((tenant, table, key, epoch))
                   for key in keys]
        return None if None in entries else tuple(
            entry[2] for entry in entries)

    def answer(self, question: Any, compute: Any) -> Any:
        """What ``compute()`` returned when ``question`` — which names
        the entries read by their :meth:`ordinals` — was first asked;
        every asker gets the same object, so it must be immutable."""
        found = self._answers.get(question)
        if found is not None:
            self._answers.move_to_end(question)
            self.answer_hits += 1
            return found
        found = self._answers[question] = compute()
        self.answer_misses += 1
        if len(self._answers) > ANSWER_MEMO_ENTRIES:
            self._answers.popitem(last=False)
        return found

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
        self._answers.clear()
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
