"""The storage-access layer between index consumers and cloud stores.

``repro.store`` sits between the warehouse/consistency/indexing code
and the simulated cloud backends.  Its single entry point is the
:class:`~repro.store.router.StoreRouter` — an
:class:`~repro.indexing.mapper.IndexStore` that wraps another one and
adds hash-key sharding across physical tables
(:mod:`~repro.store.sharding`), dedupe + ``batch_get`` coalescing of
point reads (:mod:`~repro.store.batch`) and an epoch-aware
read-through cache (:mod:`~repro.store.cache`), all governed by one
:class:`~repro.store.config.StoreConfig`.  The default configuration
is a pure passthrough that preserves the seed's byte-identical traces.
"""

from repro.store.batch import BatchPipeline
from repro.store.cache import (ENTRY_OVERHEAD_BYTES, AnswerMemo, IndexCache,
                               payload_weight)
from repro.store.config import StoreConfig
from repro.store.router import StoreRouter
from repro.store.sharding import (SHARD_SEPARATOR, expand_physical,
                                  shard_of, shard_table_for,
                                  shard_table_names)

__all__ = [
    "AnswerMemo",
    "BatchPipeline",
    "ENTRY_OVERHEAD_BYTES",
    "IndexCache",
    "payload_weight",
    "StoreConfig",
    "StoreRouter",
    "SHARD_SEPARATOR",
    "expand_physical",
    "shard_of",
    "shard_table_for",
    "shard_table_names",
]
