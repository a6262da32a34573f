"""Stored-state damage: silent corruption of index tables at rest.

Request-level faults (``repro.faults.injector``) fail calls *in
flight*; the damage kinds here mutate what the key-value store already
holds — the failure mode the integrity scrubber exists for.  Real-world
analogues: a lost partition after an internal re-shard, a torn write, a
bit-flip that slipped past storage-layer ECC.

Damage is applied by the :class:`CorruptionMonkey` between phases (the
store has no request to piggyback on), driven by the fault plan's
:class:`~repro.faults.plan.DamageSpec` rules and the plan's seed, so a
scenario's damage — like everything else in a run — is byte-identical
across repetitions.
"""

from __future__ import annotations

import random
from typing import Any, List

from repro.cloud.provider import CloudProvider
from repro.errors import ConfigError
from repro.faults.plan import (KIND_CORRUPT_ITEM, KIND_DROP_PARTITION,
                               DamageSpec)
from repro.indexing.checksums import CHECKSUM_ATTR


class CorruptionMonkey:
    """Applies a plan's damage rules to a built index's tables."""

    def __init__(self, cloud: CloudProvider, seed: int = 0) -> None:
        self._cloud = cloud
        self._rng = random.Random((int(seed) << 8) ^ 0xDA)
        #: Human-readable trail of every mutation actually applied.
        self.applied: List[str] = []

    def damage_index(self, built: Any,
                     specs: List[DamageSpec]) -> List[str]:
        """Apply ``specs`` to ``built``'s tables; returns the trail.

        ``spec.table`` indexes the *real* (shard) tables: a sharded
        index exposes every physical shard as a separate target, so
        damage can land on any one shard.
        """
        before = len(self.applied)
        tables = sorted(
            shard_table
            for physical in built.physical_tables
            for shard_table in built.store.shard_tables(physical))
        if not tables:
            return []
        for spec in specs:
            physical = tables[spec.table % len(tables)]
            if spec.kind == KIND_CORRUPT_ITEM:
                self._corrupt_items(physical, spec.count)
            elif spec.kind == KIND_DROP_PARTITION:
                self._drop_partitions(physical, spec.count)
            else:
                raise ConfigError(
                    "unknown damage kind {!r}".format(spec.kind))
        return self.applied[before:]

    # -- the two damage kinds ----------------------------------------------

    def _corrupt_items(self, physical: str, count: int) -> None:
        """Flip one payload bit in ``count`` distinct stored items."""
        table = self._cloud.dynamodb.table(physical)
        items = sorted(table.all_items(),
                       key=lambda item: (item.hash_key,
                                         item.range_key or ""))
        if not items:
            return
        victims = self._rng.sample(items, min(count, len(items)))
        for item in victims:
            # A bit needs a byte to live in: presence-marker payloads
            # (LU stores empty strings) have none, so fall back to the
            # checksum stamp — silent corruption of the guard itself.
            payload_attrs = sorted(
                name for name, values in item.attributes.items()
                if name != CHECKSUM_ATTR and values and values[0])
            if not payload_attrs:
                payload_attrs = sorted(
                    name for name, values in item.attributes.items()
                    if values and values[0])
            if not payload_attrs:
                continue
            attr = payload_attrs[self._rng.randrange(len(payload_attrs))]
            flipped = self._cloud.dynamodb.corrupt_attribute(
                physical, item.hash_key, item.range_key, attr,
                byte_index=self._rng.randrange(256),
                bit=self._rng.randrange(8))
            if flipped:
                self.applied.append(
                    "corrupt-item {} ({!r}, {!r}) attr {!r}".format(
                        physical, item.hash_key, item.range_key, attr))

    def _drop_partitions(self, physical: str, count: int) -> None:
        """Remove ``count`` whole hash-key groups from one table."""
        table = self._cloud.dynamodb.table(physical)
        keys = sorted({item.hash_key for item in table.all_items()})
        if not keys:
            return
        for key in self._rng.sample(keys, min(count, len(keys))):
            removed = self._cloud.dynamodb.drop_partition(physical, key)
            self.applied.append(
                "drop-table-partition {} {!r} ({} items)".format(
                    physical, key, removed))
