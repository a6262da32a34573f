"""Storage-access layer configuration.

One small value object decides how the warehouse talks to its index
stores: how many physical shard tables back each logical table, and
how many bytes the epoch-aware read cache may hold.  The default —
one shard, no cache — is the seed behaviour: same tables, same
requests, byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class StoreConfig:
    """How the store layer shards and caches index tables.

    Attributes
    ----------
    shards:
        Physical DynamoDB tables per logical index table (≥ 1).  The
        default 1 keeps the seed's unsuffixed single-table layout.
    cache_bytes:
        Byte budget of the epoch-aware :class:`~repro.store.cache.
        IndexCache`; 0 (default) disables caching entirely.
    """

    shards: int = 1
    cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(
                "StoreConfig.shards must be >= 1, got {}".format(
                    self.shards))
        if self.cache_bytes < 0:
            raise ConfigError(
                "StoreConfig.cache_bytes must be >= 0, got {}".format(
                    self.cache_bytes))

    @property
    def cache_enabled(self) -> bool:
        """Whether a read cache should be attached at all."""
        return self.cache_bytes > 0
