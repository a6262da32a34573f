"""Point-read collection: dedupe, shard partitioning, batch coalescing.

A lookup plan issues point reads key by key; DynamoDB bills each
``get`` but offers ``batch_get`` — up to 100 keys in one request
(§6 of the paper already leans on it for LU).  The pipeline collects
the keys a plan asks for, drops duplicates (the dedupe-audit
invariant: one query never pays twice for the same hash key), routes
each survivor to its shard, and emits per-shard key chunks that
respect the 100-key cap — ready to drive one ``batch_get`` each.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cloud.dynamodb import BATCH_GET_LIMIT

from repro.store.sharding import shard_of, shard_table_names


class BatchPipeline:
    """Collects point reads and coalesces them into per-shard batches.

    ``add`` dedupes; ``batches`` partitions the surviving keys by
    shard (first-seen order within a shard, ascending shard order
    across shards — both deterministic) and chunks each partition at
    ``BATCH_GET_LIMIT`` keys, DynamoDB's batch size.
    """

    def __init__(self, shards: int = 1) -> None:
        self.shards = max(1, shards)
        #: shard ordinal -> keys routed there, first-seen order.
        self._by_shard: Dict[int, List[str]] = {}
        self._seen: Dict[str, None] = {}
        #: Keys offered, duplicates included.
        self.requested = 0

    def __len__(self) -> int:
        return len(self._seen)

    def add(self, key: str) -> bool:
        """Collect one point read; False when it was a duplicate."""
        self.requested += 1
        if key in self._seen:
            return False
        self._seen[key] = None
        self._by_shard.setdefault(shard_of(key, self.shards),
                                  []).append(key)
        return True

    def add_all(self, keys) -> None:
        """Collect many point reads (duplicates dropped)."""
        for key in keys:
            self.add(key)

    @property
    def unique(self) -> int:
        """Distinct keys collected."""
        return len(self._seen)

    @property
    def coalesced_savings(self) -> int:
        """Point reads that will not be billed thanks to deduping."""
        return self.requested - len(self._seen)

    def batches(self, physical: str) -> List[Tuple[int, str, List[str]]]:
        """``(shard, shard table, key chunk)`` batches for one table.

        Each chunk holds at most ``BATCH_GET_LIMIT`` keys, so every batch
        maps to exactly one ``batch_get`` request.  Empty when nothing
        was collected — the caller then issues no request at all
        (DynamoDB rejects empty ``batch_get`` key lists).
        """
        names = shard_table_names(physical, self.shards)
        out: List[Tuple[int, str, List[str]]] = []
        for shard in sorted(self._by_shard):
            keys = self._by_shard[shard]
            for start in range(0, len(keys), BATCH_GET_LIMIT):
                out.append((shard, names[shard],
                            keys[start:start + BATCH_GET_LIMIT]))
        return out
