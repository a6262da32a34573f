"""Unit tests for the simulation environment / event loop."""

import gc

import pytest

from repro.errors import SimulationDeadlock, SimulationError
from repro.sim import Environment


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_run_until_stops_before_future_events(env):
    env.timeout(10.0)
    env.run(until=5.0)
    assert env.now == 5.0
    env.run()
    assert env.now == 10.0


def test_run_until_in_past_rejected(env):
    env.timeout(10.0)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_empty_with_until_advances_clock(env):
    env.run(until=42.0)
    assert env.now == 42.0


def test_peek_returns_next_event_time(env):
    assert env.peek() is None
    env.timeout(7.0)
    env.timeout(3.0)
    assert env.peek() == 3.0


def test_step_on_empty_queue_raises(env):
    with pytest.raises(SimulationError):
        env.step()


def test_events_process_in_time_order(env):
    order = []
    for delay in (5.0, 1.0, 3.0):
        env.timeout(delay).add_callback(
            lambda e, d=delay: order.append(d))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_simultaneous_events_process_in_schedule_order(env):
    order = []
    for tag in ("a", "b", "c"):
        env.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_process_returns_value(env):
    def worker(env):
        yield env.timeout(2.0)
        return "result"
    assert env.run_process(worker(env)) == "result"
    assert env.now == 2.0


def test_run_process_detects_deadlock(env):
    def stuck(env):
        yield env.event()  # nobody will ever trigger this
    with pytest.raises(SimulationDeadlock):
        env.run_process(stuck(env))


def test_run_process_does_not_drain_unrelated_events(env):
    """Stale future events must not drag the clock forward (the SQS
    lease-watchdog regression)."""
    env.timeout(10000.0)  # unrelated far-future event

    def quick(env):
        yield env.timeout(1.0)
    env.run_process(quick(env))
    assert env.now == 1.0


def test_determinism_two_runs_identical():
    def scenario():
        env = Environment()
        trace = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            trace.append((name, env.now))
            yield env.timeout(delay)
            trace.append((name, env.now))
            return name

        procs = [env.process(worker(env, "w{}".format(i), 0.5 + 0.1 * i))
                 for i in range(5)]

        def main(env):
            for proc in procs:
                yield proc
        env.run_process(main(env))
        return trace

    assert scenario() == scenario()


# -- the collector pause -----------------------------------------------------
#
# ``run`` and ``run_process`` pause CPython's cyclic collector while they
# step and put back the caller's state on every exit.

CONTAINERS = 50_000


@pytest.fixture
def collector():
    """The collector on at the start; the caller's state put back."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


def _hoarder(env, held):
    """Allocates far past the young generation's threshold."""
    yield env.timeout(1.0)
    held.extend([] for _ in range(CONTAINERS))
    yield env.timeout(1.0)
    return len(held)


def _passes_while_stepping(env, drive):
    """Collector passes that start while ``env`` steps a process."""
    started = []

    def on_gc(phase, info):
        if phase == "start" and env.active_process is not None:
            started.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        drive()
    finally:
        gc.callbacks.remove(on_gc)
    return started


def test_the_hoarder_trips_the_collector_outside_run(collector):
    env = Environment()
    proc = env.process(_hoarder(env, []))

    def drive():
        while proc.is_alive:
            env.step()

    assert _passes_while_stepping(env, drive)


@pytest.mark.parametrize("loop", ["run", "run_process"])
def test_no_collector_pass_starts_while_the_kernel_steps(collector, loop):
    env = Environment()
    held = []
    if loop == "run":
        env.process(_hoarder(env, held))
        drive = env.run
    else:
        def drive():
            assert env.run_process(_hoarder(env, held)) == CONTAINERS
    assert _passes_while_stepping(env, drive) == []
    assert len(held) == CONTAINERS
    assert gc.isenabled()


def _failing(env):
    yield env.timeout(1.0)
    raise ValueError("boom")


def _stuck(env):
    yield env.event()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_every_exit_puts_back_the_callers_collector_state(collector,
                                                          enabled):
    if not enabled:
        gc.disable()
    env = Environment()
    env.run(until=1.0)
    assert gc.isenabled() is enabled
    env.timeout(1.0)
    env.run()
    assert gc.isenabled() is enabled
    assert env.run_process(_hoarder(env, [])) == CONTAINERS
    assert gc.isenabled() is enabled
    with pytest.raises(SimulationDeadlock):
        env.run_process(_stuck(env))
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError, match="boom"):
        env.run_process(_failing(env))
    assert gc.isenabled() is enabled
    with pytest.raises(SimulationError):
        env.run(until=0.0)
    assert gc.isenabled() is enabled


def test_a_nested_run_process_keeps_the_outer_pause(collector):
    env = Environment()
    inside = []

    def callback(_event):
        inside.append(env.run_process(_hoarder(env, [])))
        inside.append(gc.isenabled())

    env.timeout(1.0).add_callback(callback)
    env.run()
    assert inside == [CONTAINERS, False]
    assert gc.isenabled()
