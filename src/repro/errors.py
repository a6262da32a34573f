"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Cloud-service errors mirror the
error taxonomy of the real AWS services they simulate (e.g. conditional
write failures, item-size limits, missing keys) because the warehouse
code paths react to those errors exactly as a real deployment would.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


# --------------------------------------------------------------------------
# Simulation kernel errors
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class SimulationDeadlock(SimulationError):
    """The event queue drained while processes were still waiting."""


class ProcessInterrupted(SimulationError):
    """A simulated process was interrupted while waiting on an event."""


# --------------------------------------------------------------------------
# Cloud service errors (mirroring AWS error semantics)
# --------------------------------------------------------------------------


class CloudServiceError(ReproError):
    """Base class for simulated cloud-service errors."""


class NoSuchBucket(CloudServiceError):
    """An S3 operation referenced a bucket that does not exist."""


class NoSuchKey(CloudServiceError):
    """An S3 GET referenced an object key that does not exist."""


class BucketAlreadyExists(CloudServiceError):
    """An S3 CreateBucket used a name that is already taken."""


class TableError(CloudServiceError):
    """Base class for key-value store (DynamoDB/SimpleDB) errors."""


class NoSuchTable(TableError):
    """An operation referenced a table/domain that does not exist."""


class TableAlreadyExists(TableError):
    """CreateTable used a name that is already taken."""


class ItemTooLarge(TableError):
    """An item exceeded the store's maximum item size (64 KB in DynamoDB)."""


class AttributeTooLarge(TableError):
    """An attribute value exceeded the store's per-attribute limit."""


class TooManyAttributes(TableError):
    """An item exceeded the store's maximum attribute count (SimpleDB: 256)."""


class ValidationError(TableError):
    """A request was malformed (missing key attribute, bad batch size...)."""


class ConditionalCheckFailed(TableError):
    """A conditional write's expectation did not hold.

    Mirrors DynamoDB's ``ConditionalCheckFailedException``: the put was
    rejected atomically, nothing was written.  Deliberately *not*
    retryable — the caller must re-read and decide, which is exactly
    what makes the epoch-manifest flip safe under concurrency.
    """


class IntegrityError(TableError):
    """Stored index data failed an integrity check.

    Raised when a read or scrub finds an item whose stamped checksum no
    longer matches its content, or whose payload violates an index
    invariant (e.g. the LUI sorted-ID order).  The query processor
    treats the table as *suspect* and degrades to a coarser access
    path; the scrubber repairs it.
    """


class ThroughputExceeded(TableError):
    """Provisioned throughput was exceeded and the request was throttled.

    Raised by the simulated DynamoDB in the opt-in *throttle mode*
    (``DynamoDB.enable_throttle_mode``) when the capacity backlog grows
    past the configured bound, and by the fault injector during
    throttling bursts.  By default requests queue on the capacity
    token bucket instead, accruing simulated latency.  The AWS SDK name
    is kept as the :data:`ProvisionedThroughputExceeded` alias.
    """


#: AWS SDK spelling of the DynamoDB throttling error.
ProvisionedThroughputExceeded = ThroughputExceeded


class TransientServiceError(CloudServiceError):
    """A request failed transiently (the 500/503 class of AWS errors).

    Injected by :mod:`repro.faults`; never raised by a healthy service.
    Clients are expected to retry with backoff — exactly how the AWS
    SDKs classify ``InternalError`` / ``ServiceUnavailable`` responses.
    """

    def __init__(self, service: str, operation: str) -> None:
        super().__init__("{}.{} failed transiently".format(service, operation))
        self.service = service
        self.operation = operation


class RegionUnavailable(CloudServiceError):
    """A request reached a region whose services are blacked out.

    Injected by the :data:`~repro.faults.KIND_REGION_OUTAGE` chaos
    fault; never raised by a healthy region.  Deliberately *not*
    retryable (unlike :class:`TransientServiceError`): an outage
    outlasts any sane backoff budget, so clients must fail over to a
    replica or degrade instead of burning retries against a dead
    region.
    """

    def __init__(self, region: str, service: str, operation: str) -> None:
        super().__init__("region {} is unavailable ({}.{})".format(
            region, service, operation))
        self.region = region
        self.service = service
        self.operation = operation


class QueueError(CloudServiceError):
    """Base class for SQS errors."""


class NoSuchQueue(QueueError):
    """An operation referenced a queue that does not exist."""


class ReceiptHandleInvalid(QueueError):
    """A delete/renew used a stale receipt handle (lease already lost)."""


class InstanceError(CloudServiceError):
    """Base class for EC2 errors."""


class NoSuchInstance(InstanceError):
    """An operation referenced an instance id that does not exist."""


class InstanceStateError(InstanceError):
    """An operation was invalid for the instance's current state."""


class InstanceCrashed(InstanceError):
    """A virtual instance died mid-task (chaos-injected worker crash).

    Thrown into the worker's simulated process; everything the worker
    held (message leases, half-written batches) is abandoned, and the
    §3 fault-tolerance path — lease lapse, SQS redelivery — takes over.
    """


class InstanceRetired(InstanceError):
    """A virtual instance was retired by the autoscaler.

    Unlike :class:`InstanceCrashed` this is a *planned* removal, but the
    recovery contract is identical: the worker's process is interrupted,
    any in-flight message lease is simply allowed to lapse, and SQS
    redelivers the work to a surviving instance.  Distinguishing the two
    keeps scale-in events out of the chaos accounting.
    """


# --------------------------------------------------------------------------
# XML substrate errors
# --------------------------------------------------------------------------


class XMLError(ReproError):
    """Base class for XML model/parsing errors."""


class XMLParseError(XMLError):
    """The input was not well-formed XML."""


class EncodingError(XMLError):
    """A compact ID encoding could not be decoded."""


# --------------------------------------------------------------------------
# Query language and engine errors
# --------------------------------------------------------------------------


class QueryError(ReproError):
    """Base class for query language errors."""


class PatternSyntaxError(QueryError):
    """The textual tree-pattern syntax could not be parsed."""


class PatternSemanticsError(QueryError):
    """The pattern is syntactically valid but semantically ill-formed."""


class EvaluationError(QueryError):
    """The engine failed while evaluating a query."""


# --------------------------------------------------------------------------
# Indexing and warehouse errors
# --------------------------------------------------------------------------


class IndexingError(ReproError):
    """Base class for indexing-strategy errors."""


class UnknownStrategy(IndexingError):
    """A strategy name was not found in the registry."""


class WarehouseError(ReproError):
    """Base class for warehouse orchestration errors."""


class BuildStateError(WarehouseError):
    """A checkpointed build was driven through an invalid transition.

    Examples: committing an epoch whose batch ledger is incomplete,
    resuming a build that was already committed, or recording a ledger
    entry whose content hash disagrees with an existing entry for the
    same batch (which would mean two deliveries of one batch produced
    different index content — a determinism bug, never a fault).
    """


class DocumentNotLoaded(WarehouseError):
    """A query referenced a document that was never loaded."""


class TelemetryError(ReproError):
    """Base class for telemetry (tracing / metrics registry) errors."""


class LabelCardinalityError(TelemetryError):
    """A metric accumulated more distinct label sets than its cap allows.

    Unbounded label values (document URIs, receipt handles, span ids)
    would make the registry grow with the workload instead of with the
    instrumentation; the cap turns that design error into a loud
    failure.
    """
