"""Simulated Amazon Simple Queue Service (SQS).

The paper's modules communicate exclusively through SQS queues (§3): the
front end posts document-load requests and queries; loader and
query-processor instances receive them; results are announced on a
response queue.  Fault tolerance comes from SQS semantics: "if an
instance fails to renew its lease on the message which had caused a task
to start, the message becomes available again and another virtual
instance will take over the job."

This model implements:

- named queues with at-least-once delivery;
- visibility timeouts: a received message is invisible until deleted,
  and reappears (with an incremented receive count) if its lease
  expires;
- lease renewal (``change_visibility``);
- blocking receive (long polling);
- per-request metering (``QS$`` prices every API request, §7.2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.config import PerformanceProfile
from repro.errors import NoSuchQueue, QueueError, ReceiptHandleInvalid
from repro.sim import Environment, Meter, Store

SERVICE = "sqs"


@dataclass
class Message:
    """A queued message: opaque body plus delivery bookkeeping."""

    message_id: str
    body: Any
    sent_at: float
    receive_count: int = 0


@dataclass
class _InFlight:
    """A received-but-not-deleted message and its lease deadline."""

    message: Message
    deadline: float


@dataclass(frozen=True)
class RedrivePolicy:
    """Dead-letter configuration for a queue.

    After a message's lease lapses for the ``max_receive_count``-th
    time it is moved to ``dead_letter_queue`` instead of being made
    visible again, so a poison message (or a repeatedly crashing
    consumer) cannot loop forever.  Mirrors the SQS ``RedrivePolicy``
    attribute.
    """

    dead_letter_queue: str
    max_receive_count: int = 5


@dataclass
class _Queue:
    name: str
    visibility_timeout: float
    store: Store
    redrive: Optional[RedrivePolicy] = None
    in_flight: Dict[str, _InFlight] = field(default_factory=dict)
    sent_total: int = 0
    redelivered_total: int = 0
    dead_lettered_total: int = 0


class SQS:
    """The simulated queue service."""

    def __init__(self, env: Environment, meter: Meter,
                 profile: PerformanceProfile) -> None:
        self._env = env
        self._meter = meter
        self._profile = profile
        self._queues: Dict[str, _Queue] = {}
        self._handle_ids = itertools.count(1)
        self._message_ids = itertools.count(1)
        self._faults: Optional[Any] = None

    def attach_faults(self, injector: Any) -> None:
        """Attach a :class:`repro.faults.FaultInjector` to the data path."""
        self._faults = injector

    def _span(self, operation: str, **attributes: Any):
        """A telemetry span for one data-path request."""
        return self._env.telemetry.tracer.span("sqs." + operation,
                                               **attributes)

    def _counter(self, name: str, help_text: str):
        return self._env.telemetry.counter(name, help_text, ("queue",))

    # -- administration ---------------------------------------------------

    def create_queue(self, name: str, visibility_timeout: float = 30.0,
                     redrive_policy: Optional[RedrivePolicy] = None,
                     ) -> None:
        """Create a queue with the given default visibility timeout.

        ``redrive_policy`` points at an *existing* queue that receives
        messages whose receive count reaches ``max_receive_count``.
        """
        if name in self._queues:
            raise QueueError("queue {!r} already exists".format(name))
        if visibility_timeout <= 0:
            raise QueueError("visibility timeout must be positive")
        if redrive_policy is not None:
            if redrive_policy.dead_letter_queue not in self._queues:
                raise NoSuchQueue(redrive_policy.dead_letter_queue)
            if redrive_policy.dead_letter_queue == name:
                raise QueueError(
                    "queue {!r} cannot be its own dead-letter queue".format(
                        name))
            if redrive_policy.max_receive_count < 1:
                raise QueueError("max_receive_count must be >= 1")
        self._queues[name] = _Queue(
            name=name, visibility_timeout=visibility_timeout,
            store=Store(self._env), redrive=redrive_policy)

    def queue_names(self) -> List[str]:
        """Names of all queues, sorted."""
        return sorted(self._queues)

    def _queue(self, name: str) -> _Queue:
        try:
            return self._queues[name]
        except KeyError:
            raise NoSuchQueue(name) from None

    # -- data path ----------------------------------------------------------

    def send(self, queue_name: str, body: Any) -> Generator[Any, Any, str]:
        """Enqueue a message; returns its message id."""
        queue = self._queue(queue_name)
        with self._span("send", queue=queue_name):
            if self._faults is not None:
                yield from self._faults.perturb("send")
            yield self._env.timeout(self._profile.sqs_request_latency_s)
            message = Message(
                message_id="m-{:08d}".format(next(self._message_ids)),
                body=body, sent_at=self._env.now)
            queue.store.put(message)
            queue.sent_total += 1
            self._meter.record(self._env.now, SERVICE, "send_message")
        return message.message_id

    def receive(self, queue_name: str,
                ) -> Generator[Any, Any, Tuple[Any, str]]:
        """Receive the next message (blocking long poll).

        Returns ``(body, receipt_handle)``.  The message stays invisible
        for the visibility timeout; delete it before the lease expires or
        it will be redelivered to another receiver.
        """
        queue = self._queue(queue_name)
        with self._span("receive", queue=queue_name):
            if self._faults is not None:
                yield from self._faults.perturb("receive")
            yield self._env.timeout(self._profile.sqs_request_latency_s)
            message: Message = yield queue.store.get()
            message.receive_count += 1
            handle = "rh-{:08d}".format(next(self._handle_ids))
            record = _InFlight(
                message=message,
                deadline=self._env.now + queue.visibility_timeout)
            queue.in_flight[handle] = record
            self._env.process(self._watchdog(queue, handle),
                              name="sqs-watchdog-{}".format(handle))
            self._meter.record(self._env.now, SERVICE, "receive_message")
        return message.body, handle

    def receive_if_available(self, queue_name: str,
                             ) -> Generator[Any, Any,
                                            Optional[Tuple[Any, str]]]:
        """Short-polling receive: returns None when the queue is empty.

        The request is billed either way (real SQS charges for empty
        receives too).  Workers use this to opportunistically batch
        several pending messages without blocking on an empty queue.
        """
        queue = self._queue(queue_name)
        if self._faults is not None:
            yield from self._faults.perturb("receive_if_available")
        yield self._env.timeout(self._profile.sqs_request_latency_s)
        available, message = queue.store.try_get()
        self._meter.record(self._env.now, SERVICE, "receive_message")
        if not available:
            return None
        message.receive_count += 1
        handle = "rh-{:08d}".format(next(self._handle_ids))
        queue.in_flight[handle] = _InFlight(
            message=message,
            deadline=self._env.now + queue.visibility_timeout)
        self._env.process(self._watchdog(queue, handle),
                          name="sqs-watchdog-{}".format(handle))
        return message.body, handle

    def delete(self, queue_name: str, handle: str) -> Generator[Any, Any, None]:
        """Acknowledge a message, removing it permanently."""
        queue = self._queue(queue_name)
        with self._span("delete", queue=queue_name):
            if self._faults is not None:
                yield from self._faults.perturb("delete")
            yield self._env.timeout(self._profile.sqs_request_latency_s)
            if handle not in queue.in_flight:
                raise ReceiptHandleInvalid(handle)
            del queue.in_flight[handle]
            self._meter.record(self._env.now, SERVICE, "delete_message")

    def renew(self, queue_name: str, handle: str, extension: float,
              ) -> Generator[Any, Any, None]:
        """Extend a message lease by ``extension`` seconds from now."""
        queue = self._queue(queue_name)
        if self._faults is not None:
            yield from self._faults.perturb("renew")
        yield self._env.timeout(self._profile.sqs_request_latency_s)
        record = queue.in_flight.get(handle)
        if record is None:
            raise ReceiptHandleInvalid(handle)
        shortened = self._env.now + extension < record.deadline
        record.deadline = self._env.now + extension
        if shortened:
            # The running watchdog sleeps until the *old* deadline; a
            # shortened lease needs a fresh watchdog at the new one
            # (whichever fires first requeues; the other finds the
            # handle gone and exits).
            self._env.process(self._watchdog(queue, handle),
                              name="sqs-watchdog-renew-{}".format(handle))
        self._meter.record(self._env.now, SERVICE, "change_visibility")

    def purge(self, queue_name: str) -> Generator[Any, Any, int]:
        """Discard every visible and in-flight message; returns the count.

        Mirrors SQS ``PurgeQueue`` (one billed admin request).  A resumed
        build purges the loader queue before re-enqueueing the batches
        its ledger says are still missing — stale pre-crash deliveries
        must not race the recovery fleet.
        """
        self._queue(queue_name)  # an unknown queue fails before the wait
        yield self._env.timeout(self._profile.sqs_request_latency_s)
        dropped = self.discard(queue_name)
        self._meter.record(self._env.now, SERVICE, "purge_queue")
        return dropped

    def discard(self, queue_name: str) -> int:
        """Drop every visible and in-flight message now, unbilled and
        outside simulated time; returns the count.  How a failed run
        takes back what it left on its queues."""
        queue = self._queue(queue_name)
        dropped = 0
        while True:
            available, _ = queue.store.try_get()
            if not available:
                break
            dropped += 1
        # In-flight leases are dropped too: their watchdogs find the
        # handle gone and exit without requeueing.
        dropped += len(queue.in_flight)
        queue.in_flight.clear()
        return dropped

    # -- lease expiry -----------------------------------------------------------

    def _watchdog(self, queue: _Queue, handle: str,
                  ) -> Generator[Any, Any, None]:
        """Requeue the message if its lease expires before deletion."""
        while True:
            record = queue.in_flight.get(handle)
            if record is None:
                return  # deleted in time
            remaining = record.deadline - self._env.now
            if remaining > 1e-9:
                yield self._env.timeout(remaining)
                continue
            # Lease expired: the message becomes visible again and
            # another instance will take over the job (§3) — unless the
            # redrive policy says it has failed too many times already.
            del queue.in_flight[handle]
            redrive = queue.redrive
            if (redrive is not None
                    and record.message.receive_count
                    >= redrive.max_receive_count):
                self._queue(redrive.dead_letter_queue).store.put(
                    record.message)
                queue.dead_lettered_total += 1
                self._counter(
                    "sqs_dead_lettered_total",
                    "Messages moved to a dead-letter queue.",
                ).inc(queue=queue.name)
                self._meter.record(self._env.now, "faults",
                                   "sqs:dead_letter")
                return
            queue.store.put(record.message)
            queue.redelivered_total += 1
            self._counter(
                "sqs_redelivered_total",
                "Messages redelivered after a lease expiry.",
            ).inc(queue=queue.name)
            return

    # -- inspection ----------------------------------------------------------------

    def approximate_depth(self, queue_name: str) -> int:
        """Visible messages currently waiting (excludes in-flight)."""
        return len(self._queue(queue_name).store)

    def oldest_message_age(self, queue_name: str) -> float:
        """Age (seconds) of the oldest *visible* message; 0.0 if empty.

        Mirrors the CloudWatch ``ApproximateAgeOfOldestMessage`` metric
        the autoscaler alarms on: depth alone cannot distinguish a
        short fresh backlog from a slow trickle that is blowing the
        latency SLO.
        """
        messages = self._queue(queue_name).store.peek_all()
        if not messages:
            return 0.0
        return self._env.now - min(m.sent_at for m in messages)

    def in_flight_count(self, queue_name: str) -> int:
        """Messages received but neither deleted nor redelivered yet."""
        return len(self._queue(queue_name).in_flight)

    def redelivered_count(self, queue_name: str) -> int:
        """How many lease expiries caused redelivery (fault-tolerance)."""
        return self._queue(queue_name).redelivered_total

    def dead_lettered_count(self, queue_name: str) -> int:
        """How many of this queue's messages were moved to its DLQ."""
        return self._queue(queue_name).dead_lettered_total

    def redrive_policy(self, queue_name: str) -> Optional[RedrivePolicy]:
        """The queue's redrive policy, if any."""
        return self._queue(queue_name).redrive
