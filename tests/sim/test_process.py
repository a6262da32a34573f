"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


def test_process_requires_generator(env):
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # not a generator


def test_process_is_event(env):
    def worker(env):
        yield env.timeout(1.0)
        return 7
    proc = env.process(worker(env))
    assert proc.is_alive

    def waiter(env):
        value = yield proc
        return value * 2
    assert env.run_process(waiter(env)) == 14
    assert not proc.is_alive


def test_process_exception_propagates_to_waiter(env):
    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("inner failure")

    proc = env.process(failing(env))

    def waiter(env):
        with pytest.raises(ValueError):
            yield proc
        return "caught"
    assert env.run_process(waiter(env)) == "caught"


def test_yield_non_event_raises_inside_process(env):
    def bad(env):
        yield 42

    def waiter(env):
        with pytest.raises(SimulationError):
            yield env.process(bad(env))
        return True
    assert env.run_process(waiter(env))


def test_yield_foreign_event_raises(env):
    other = Environment()

    def bad(env):
        yield other.timeout(1.0)

    def waiter(env):
        with pytest.raises(SimulationError):
            yield env.process(bad(env))
        return True
    assert env.run_process(waiter(env))


def test_interrupt_wakes_process_with_exception(env):
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("slept")
        except RuntimeError as exc:
            log.append(str(exc))
        return "done"

    proc = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1.0)
        proc.interrupt(RuntimeError("wake up"))
        yield proc
    env.run_process(interrupter(env))
    assert log == ["wake up"]
    assert env.now == 1.0


def test_interrupt_finished_process_raises(env):
    def quick(env):
        yield env.timeout(0.0)
    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt(RuntimeError("too late"))


def test_processes_interleave(env):
    trace = []

    def worker(env, name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            trace.append(name)

    env.process(worker(env, "fast", 1.0))
    env.process(worker(env, "slow", 2.5))
    env.run()
    assert trace == ["fast", "fast", "slow", "fast", "slow", "slow"]


def test_immediate_return_process(env):
    def instant(env):
        return 5
        yield  # pragma: no cover - makes this a generator
    assert env.run_process(instant(env)) == 5


def _join_after(env, events, delay, log):
    """Sleep ``delay``, then wait on every event in order (each one
    already finished by then), logging what each wait returned."""
    yield env.timeout(delay)
    for event in events:
        try:
            log.append((env.now, (yield event)))
        except ValueError as exc:
            log.append((env.now, str(exc)))
    log.append((env.now, "joined"))


def _child(env, value):
    yield env.timeout(1.0)
    return value


def test_joining_ten_thousand_finished_events_uses_no_stack(env):
    """A run of already-processed events resumes the joiner in one
    frame: each used to cost two stack frames, so 500 overflowed."""
    events = [env.timeout(0.5, index) for index in range(10_000)]
    log = []
    env.process(_join_after(env, events, 1.0, log))
    env.run()
    assert log[:-1] == [(1.0, index) for index in range(10_000)]
    assert log[-1] == (1.0, "joined")


def test_a_parent_joins_five_hundred_finished_children(env):
    log = []
    children = [env.process(_child(env, index)) for index in range(500)]
    env.process(_join_after(env, children, 2.0, log))
    env.run()
    assert [value for _, value in log] == list(range(500)) + ["joined"]
    assert {when for when, _ in log} == {2.0}


def test_finished_events_are_joined_in_the_step_that_woke_the_joiner(env):
    """Joining finished events takes no step of its own: the joiner is
    done before an event queued after its wake-up at the same time."""
    log = []
    failed = env.event().fail(ValueError("child failed"))
    done = [env.timeout(0.5, "a"), failed, env.timeout(0.5, "b")]
    env.process(_join_after(env, done, 1.0, log))
    env.process(_join_after(env, [], 1.0, log))  # wakes right after
    env.run()
    assert log == [(1.0, "a"), (1.0, "child failed"), (1.0, "b"),
                   (1.0, "joined"), (1.0, "joined")]


def test_an_exception_that_escaped_a_step_stops_later_runs(env):
    """A callback that raises leaves the rest of its event's callbacks
    unrun, so their waiters would wait forever: the kernel refuses to
    run again rather than hang."""
    def boom(_event):
        raise RuntimeError("boom")

    env.timeout(1.0).add_callback(boom)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    with pytest.raises(SimulationError, match="boom") as raised:
        env.run()
    assert isinstance(raised.value.__cause__, RuntimeError)
    with pytest.raises(SimulationError, match="cannot run again"):
        env.run_process(_child(env, 1))
