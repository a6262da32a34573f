"""Unit tests for Resource, Store and ThroughputLimiter."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store, ThroughputLimiter


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, 0)

    def test_grants_up_to_capacity_immediately(self, env):
        resource = Resource(env, 2)

        def worker(env):
            yield resource.request()
            yield resource.request()
            return resource.available
        assert env.run_process(worker(env)) == 0

    def test_release_without_request_raises(self, env):
        resource = Resource(env, 1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_fifo_queueing(self, env):
        resource = Resource(env, 1)
        grants = []

        def worker(env, name, hold):
            yield resource.request()
            grants.append((name, env.now))
            yield env.timeout(hold)
            resource.release()

        env.process(worker(env, "first", 2.0))
        env.process(worker(env, "second", 1.0))
        env.process(worker(env, "third", 1.0))
        env.run()
        assert grants == [("first", 0.0), ("second", 2.0), ("third", 3.0)]

    def test_parallelism_matches_capacity(self, env):
        resource = Resource(env, 3)
        done = []

        def worker(env):
            yield resource.request()
            yield env.timeout(4.0)
            resource.release()
            done.append(env.now)

        for _ in range(6):
            env.process(worker(env))
        env.run()
        assert done == [4.0, 4.0, 4.0, 8.0, 8.0, 8.0]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")

        def getter(env):
            first = yield store.get()
            second = yield store.get()
            return [first, second]
        assert env.run_process(getter(env)) == ["a", "b"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        received = []

        def getter(env):
            item = yield store.get()
            received.append((item, env.now))

        def putter(env):
            yield env.timeout(3.0)
            store.put("late")

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert received == [("late", 3.0)]

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() == (False, None)
        store.put(1)
        assert store.try_get() == (True, 1)
        assert len(store) == 0

    def test_getters_served_fifo(self, env):
        store = Store(env)
        order = []

        def getter(env, name):
            item = yield store.get()
            order.append((name, item))

        env.process(getter(env, "g1"))
        env.process(getter(env, "g2"))

        def putter(env):
            yield env.timeout(1.0)
            store.put("x")
            store.put("y")
        env.process(putter(env))
        env.run()
        assert order == [("g1", "x"), ("g2", "y")]

    def test_peek_all_preserves_order(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        assert store.peek_all() == [1, 2, 3]
        assert len(store) == 3


class TestThroughputLimiter:
    def test_rate_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            ThroughputLimiter(env, 0.0)

    def test_single_request_takes_service_time(self, env):
        limiter = ThroughputLimiter(env, rate=10.0)

        def worker(env):
            delay = yield limiter.consume(50.0)
            return delay, env.now
        queue_delay, finished = env.run_process(worker(env))
        assert queue_delay == 0.0
        assert finished == pytest.approx(5.0)

    def test_concurrent_requests_serialize(self, env):
        limiter = ThroughputLimiter(env, rate=10.0)
        finishes = []

        def worker(env):
            yield limiter.consume(10.0)
            finishes.append(env.now)

        for _ in range(3):
            env.process(worker(env))
        env.run()
        assert finishes == pytest.approx([1.0, 2.0, 3.0])

    def test_queue_delay_reported(self, env):
        limiter = ThroughputLimiter(env, rate=1.0)
        delays = []

        def worker(env):
            delay = yield limiter.consume(2.0)
            delays.append(delay)

        env.process(worker(env))
        env.process(worker(env))
        env.run()
        assert delays == pytest.approx([0.0, 2.0])

    def test_idle_time_not_accumulated(self, env):
        limiter = ThroughputLimiter(env, rate=10.0)

        def worker(env):
            yield limiter.consume(10.0)
            yield env.timeout(100.0)  # idle gap
            yield limiter.consume(10.0)
        env.run_process(worker(env))
        assert env.now == pytest.approx(102.0)
        assert limiter.requests == 2
        assert limiter.total_units == 20.0

    def test_negative_amount_rejected(self, env):
        limiter = ThroughputLimiter(env, rate=1.0)
        with pytest.raises(SimulationError):
            limiter.consume(-1.0)
