"""The idempotent batch ledger.

Each checkpointed build owns a hash-only DynamoDB table mapping
``batch-id → content hash``.  A loader worker writes its batch's entry
*after* uploading the batch to the index tables and *before* deleting
the SQS message; combined with content-addressed index items this
yields exactly-once effects from at-least-once delivery:

- crash mid-upload: no ledger entry, the message is redelivered, the
  rewrite lands on identical primary keys (idempotent);
- crash after upload, before the ledger write: same as above — the
  redelivery rewrites identical items and then records the entry;
- crash after the ledger write, before the SQS delete (the classic
  double-apply window): the redelivered batch finds its ledger entry
  and is *skipped* entirely.

A ``resume`` reads the ledger to learn which batches survived the
crash and re-enqueues only the missing ones.  An entry whose hash does
not decode raises :class:`~repro.errors.IntegrityError` naming the
ledger table and the batch.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.cloud.dynamodb import DynamoItem
from repro.consistency.manifest import decode_text
from repro.errors import BuildStateError, NoSuchTable


class BatchLedger:
    """One build's ``batch-id → content-hash`` table."""

    def __init__(self, dynamodb: Any, table_name: str) -> None:
        self._db = dynamodb
        self.table_name = table_name

    def ensure_table(self) -> None:
        """Create the ledger table if it does not exist yet."""
        if self.table_name not in self._db.table_names():
            self._db.create_table(self.table_name, has_range_key=False)

    @property
    def exists(self) -> bool:
        """Whether the ledger table exists."""
        return self.table_name in self._db.table_names()

    def lookup(self, batch_id: str,
               ) -> Generator[Any, Any, Optional[str]]:
        """The recorded content hash for ``batch_id``, or None."""
        try:
            items = yield from self._db.get(self.table_name, batch_id)
        except NoSuchTable:
            return None
        if not items:
            return None
        return self._hash(items[0])

    def record(self, batch_id: str, content_hash: str,
               ) -> Generator[Any, Any, None]:
        """Record that ``batch_id`` was fully applied.

        Two workers racing on the same redelivered batch both write the
        same deterministic hash, so the double write is harmless.  A
        *different* hash for an existing entry is a determinism bug and
        raises :class:`BuildStateError` instead of papering over it.
        """
        existing = yield from self.lookup(batch_id)
        if existing is not None:
            if existing != content_hash:
                raise BuildStateError(
                    "ledger {} already records batch {} with hash {}, "
                    "refusing to overwrite with {}".format(
                        self.table_name, batch_id, existing, content_hash))
            return
        item = DynamoItem(hash_key=batch_id, range_key=None,
                          attributes={"hash": (content_hash,)})
        yield from self._db.put(self.table_name, item)

    def entries(self) -> Generator[Any, Any, Dict[str, str]]:
        """All recorded ``batch-id → hash`` pairs (a metered scan)."""
        try:
            items = yield from self._db.scan(self.table_name)
        except NoSuchTable:
            return {}
        return {item.hash_key: self._hash(item) for item in items}

    def _hash(self, item: DynamoItem) -> str:
        """One entry's recorded hash; a damaged one raises
        :class:`~repro.errors.IntegrityError` naming
        ``<ledger table>/<batch>``."""
        return decode_text("{}/{}".format(self.table_name, item.hash_key),
                           item.attributes, "hash")
