"""Deterministic hash-key partitioning of logical index tables.

A *logical* index table (e.g. ``idx-lup-lup-e1``) can be spread over
``N`` physical DynamoDB tables (``idx-lup-lup-e1.s0`` ..
``idx-lup-lup-e1.s{N-1}``) so write and read throughput scale past one
table's provisioned capacity — the "sharding" step of the ROADMAP.
The shard of an entry is a pure function of its hash key, computed
with CRC-32 (never Python's randomized ``hash()``), so every process
of every run routes a key identically and routing metadata in the
epoch manifest stays valid forever.

With ``shards == 1`` the single "shard" *is* the logical table — no
suffix, no behaviour change — which is how the default configuration
preserves the seed's byte-identical traces.
"""

from __future__ import annotations

import zlib
from typing import List

#: Separator between a logical table name and its shard ordinal.
SHARD_SEPARATOR = ".s"


def shard_of(key: str, shards: int) -> int:
    """The shard ordinal a hash key routes to (stable across runs)."""
    if shards <= 1:
        return 0
    return zlib.crc32(key.encode("utf-8")) % shards


def shard_table_names(physical: str, shards: int) -> List[str]:
    """All physical shard tables of one logical table, in shard order.

    ``shards <= 1`` returns the logical name itself, unsuffixed — the
    seed layout.
    """
    if shards <= 1:
        return [physical]
    return ["{}{}{}".format(physical, SHARD_SEPARATOR, shard)
            for shard in range(shards)]


def shard_table_for(physical: str, key: str, shards: int) -> str:
    """The physical shard table one hash key lives in."""
    return shard_table_names(physical, shards)[shard_of(key, shards)]

