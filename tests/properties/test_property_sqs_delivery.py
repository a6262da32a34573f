"""Property-based tests: SQS at-least-once delivery under lease churn.

The §3 fault-tolerance argument rests on one queue property: a sent
message is *never lost* — a consumer that dies mid-lease merely delays
redelivery.  Hypothesis drives random consumer behaviour (abandon the
lease, process slowly past the timeout, or delete in time) and checks
the invariant every way the lease can lapse.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudProvider
from repro.errors import ReceiptHandleInvalid, TransientServiceError

QUEUE = "work"
VISIBILITY_S = 1.0

#: One consumer decision per received message: values comfortably under
#: VISIBILITY_S delete in time; the rest abandon the lease (the
#: watchdog requeues the message first).
consumer_plans = st.lists(
    st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=12)


@given(st.integers(min_value=1, max_value=8), consumer_plans)
@settings(max_examples=40, deadline=None)
def test_every_message_is_delivered_at_least_once(n_messages, plan):
    """No matter how many leases lapse, every message is eventually
    received and acknowledged — none are lost, none linger."""
    cloud = CloudProvider()
    sqs = cloud.sqs
    sqs.create_queue(QUEUE, visibility_timeout=VISIBILITY_S)
    delivered = []

    def scenario():
        for index in range(n_messages):
            yield from sqs.send(QUEUE, index)
        step = 0
        # Keep consuming until every message is acknowledged; abandoned
        # leases lapse and the message comes back.  Once the plan is
        # exhausted the consumer turns reliable, so the run terminates.
        while sqs.approximate_depth(QUEUE) + sqs.in_flight_count(QUEUE) > 0:
            body, handle = yield from sqs.receive(QUEUE)
            delivered.append(body)
            delay = plan[step] if step < len(plan) else 0.0
            step += 1
            if delay < VISIBILITY_S / 2:
                yield cloud.env.timeout(delay)
                yield from sqs.delete(QUEUE, handle)
            else:
                # Abandon: sleep past the lease so the watchdog requeues
                # it (simulating a crashed consumer).
                yield cloud.env.timeout(delay + VISIBILITY_S)

    cloud.env.run_process(scenario())
    # At-least-once: every message delivered one or more times...
    assert set(delivered) == set(range(n_messages))
    # ...and the extra deliveries are exactly the recorded redeliveries.
    assert len(delivered) == n_messages + sqs.redelivered_count(QUEUE)
    assert sqs.approximate_depth(QUEUE) == 0
    assert sqs.in_flight_count(QUEUE) == 0


@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_receive_count_grows_with_each_lapse(n_messages, lapses):
    """Each lease lapse bumps the message's receive count by one."""
    cloud = CloudProvider()
    sqs = cloud.sqs
    sqs.create_queue(QUEUE, visibility_timeout=VISIBILITY_S)
    counts = []

    def scenario():
        for index in range(n_messages):
            yield from sqs.send(QUEUE, index)
        # Abandon every message `lapses - 1` times, then consume.
        for _ in range(n_messages * (lapses - 1)):
            yield from sqs.receive(QUEUE)
            yield cloud.env.timeout(VISIBILITY_S * 2)
        while sqs.approximate_depth(QUEUE) + sqs.in_flight_count(QUEUE) > 0:
            _body, handle = yield from sqs.receive(QUEUE)
            record = sqs._queue(QUEUE).in_flight[handle]
            counts.append(record.message.receive_count)
            yield from sqs.delete(QUEUE, handle)

    cloud.env.run_process(scenario())
    assert len(counts) == n_messages
    assert all(count == lapses for count in counts)


@given(st.floats(min_value=1.1, max_value=5.0))
@settings(max_examples=20, deadline=None)
def test_lapsed_handle_is_unusable(sleep_factor):
    """Once the watchdog requeues a message, its old receipt handle is
    dead — the slow consumer cannot acknowledge work it lost."""
    cloud = CloudProvider()
    sqs = cloud.sqs
    sqs.create_queue(QUEUE, visibility_timeout=VISIBILITY_S)

    def scenario():
        yield from sqs.send(QUEUE, "job")
        _body, handle = yield from sqs.receive(QUEUE)
        yield cloud.env.timeout(VISIBILITY_S * sleep_factor)
        try:
            yield from sqs.delete(QUEUE, handle)
        except ReceiptHandleInvalid:
            return True
        return False

    assert cloud.env.run_process(scenario())


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_at_least_once_under_spot_storm_and_throttling(n_messages, seed):
    """A seeded interruption storm layered on SQS throttling loses no
    message: reclaimed workers' leases lapse into redelivery, drained
    workers finish their message first, and a surviving on-demand
    worker clears whatever comes back."""
    from repro.errors import InstanceRetired
    from repro.faults import FaultPlan
    from repro.serving import MARKET_SPOT, Fleet
    from repro.serving.spot import SpotMarket

    plan = (FaultPlan(seed=seed)
            .transient_errors("sqs", rate=0.2)
            .spot_interruptions(7200.0, warning_s=0.4))
    cloud = CloudProvider(fault_plan=plan)
    sqs = cloud.resilient.sqs
    cloud.sqs.create_queue(QUEUE, visibility_timeout=VISIBILITY_S)
    processed = []

    class Consumer:
        def __init__(self, env):
            self.env = env
            self.busy = False
            self.draining = False

        def request_drain(self, notice):
            self.draining = True

        def run(self):
            try:
                while True:
                    # A spent retry budget or a lease that lapsed under
                    # backoff is tolerated, as the loader tolerates it
                    # (the message is redelivered): a consumer that died
                    # of either took the guaranteed survivor with it and
                    # the scenario polled an undrained queue for ever.
                    try:
                        body, handle = yield from sqs.receive(QUEUE)
                    except TransientServiceError:
                        continue
                    self.busy = True
                    yield self.env.timeout(0.3)
                    try:
                        yield from sqs.delete(QUEUE, handle)
                    except (ReceiptHandleInvalid, TransientServiceError):
                        pass
                    processed.append(body)
                    self.busy = False
                    if self.draining:
                        return
            except InstanceRetired:
                return

    fleet = Fleet(cloud, "xl", lambda instance: Consumer(cloud.env))
    fleet.spot_market = SpotMarket(cloud, fleet, plan.spot_specs, seed)

    def scenario():
        for index in range(n_messages):
            # A send that spent its retry budget stored nothing (the
            # fault fires before the enqueue), so the producer sends
            # again rather than die with the message unsent.
            while True:
                try:
                    yield from sqs.send(QUEUE, index)
                    break
                except TransientServiceError:
                    continue
        fleet.launch(1)                    # the guaranteed survivor
        fleet.launch(3, market=MARKET_SPOT)
        plain = cloud.sqs
        while plain.approximate_depth(QUEUE) \
                + plain.in_flight_count(QUEUE) > 0:
            yield cloud.env.timeout(0.25)
        # Let any in-flight warning window resolve (drain or reclaim)
        # before the books are checked.
        yield cloud.env.timeout(1.0)

    cloud.env.run_process(scenario())
    # At-least-once: every message processed one or more times, and
    # the storm actually exercised the machinery it claims to survive.
    assert set(processed) == set(range(n_messages))
    assert len(processed) >= n_messages
    assert fleet.spot_market.interrupted_total == (
        fleet.spot_market.drained_total
        + fleet.spot_market.reclaimed_total)
