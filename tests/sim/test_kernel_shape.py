"""The kernel's objects are born in their final, slotted shape.

An event, a timeout, a composite and a process carry no instance
``__dict__``; a meter record is one flat immutable value; and nothing
the kernel does on its own — waiting, interrupting, combining, failing
— leaves a reference cycle behind.
"""

import pytest

from tests.census import census

from repro.errors import ProcessInterrupted
from repro.sim import AllOf, AnyOf, Environment, Event, Meter, Timeout
from repro.sim.metering import MeterRecord
from repro.sim.process import Process
from repro.telemetry.attribution import Attribution


def _idle(env):
    yield env.timeout(1.0)


@pytest.mark.parametrize("make", [
    lambda env: Event(env),
    lambda env: env.event(),
    lambda env: Timeout(env, 1.0),
    lambda env: env.timeout(1.0, "value"),
    lambda env: AllOf(env, [env.timeout(1.0), env.event()]),
    lambda env: AnyOf(env, []),
    lambda env: Process(env, _idle(env)),
    lambda env: env.process(_idle(env), name="idle"),
])
def test_kernel_objects_have_no_instance_dict(make):
    obj = make(Environment())
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.scratch = 1


def test_timeout_and_process_are_born_complete():
    env = Environment()
    timeout = env.timeout(2.0, "payload")
    assert (timeout.triggered, timeout.processed, timeout.ok) \
        == (True, False, True)
    assert timeout.value == "payload" and timeout.delay == 2.0
    proc = env.process(_idle(env))
    assert proc.is_alive and not proc.triggered and proc.callbacks == []
    assert proc.name == "_idle" and proc.base_span is None
    env.run()
    assert not proc.is_alive and proc.processed and proc.value is None


def test_interrupt_while_waiting_detaches_the_pending_resume():
    env = Environment()
    gate = env.event()
    resumed = []

    def waiter():
        try:
            yield gate
            resumed.append("gate")
        except ProcessInterrupted:
            resumed.append("interrupted")
            yield env.timeout(5.0)
            resumed.append("slept")

    proc = env.process(waiter())
    env.run(until=1.0)
    assert len(gate.callbacks) == 1
    proc.interrupt(ProcessInterrupted("stop"))
    assert gate.callbacks == []  # the original wait no longer resumes it
    gate.succeed("late")
    env.run()
    assert resumed == ["interrupted", "slept"]
    assert not proc.is_alive


def test_meter_record_is_one_flat_immutable_value():
    meter = Meter()
    with meter.tagged("query:q3"):
        record = meter.record(1.5, "s3", "get", bytes_out=10)
    assert record == MeterRecord(1.5, "s3", "get", 1, 0, 10, "query:q3", 0)
    assert record == MeterRecord(time=1.5, service="s3", operation="get",
                                 bytes_out=10, tag="query:q3")
    assert record != MeterRecord(1.5, "s3", "get", bytes_out=11,
                                 tag="query:q3")
    assert hash(record) == hash(MeterRecord(1.5, "s3", "get", bytes_out=10,
                                            tag="query:q3"))
    assert len({record, meter.records()[0]}) == 1
    with pytest.raises(AttributeError):
        record.count = 2
    assert not hasattr(record, "__dict__")
    assert record._replace(span_id=9).span_id == 9 and record.span_id == 0
    assert record.attribution == Attribution.from_tag("query:q3", span_id=0)
    assert MeterRecord(0.0, "sqs", "send_message").count == 1


def test_waits_interrupts_and_composites_leave_no_cycle():
    def run():
        env = Environment()

        def worker(delay):
            yield env.timeout(delay)
            return delay

        def sleeper():
            try:
                yield env.timeout(100.0)
            except ProcessInterrupted:
                return "woken"

        def driver():
            first = yield AnyOf(env, [env.process(worker(1.0)),
                                      env.process(worker(2.0))])
            both = yield AllOf(env, [env.process(worker(1.0)),
                                     env.process(worker(2.0))])
            napping = env.process(sleeper())
            yield env.timeout(1.0)
            napping.interrupt(ProcessInterrupted("up"))
            return first, both, (yield napping)

        assert env.run_process(driver()) == (1.0, [1.0, 2.0], "woken")
        env.run()

    assert census(run)[0] == 0


def test_a_failing_process_awaited_and_caught_leaves_no_cycle():
    """The failed process holds its exception, whose traceback used to
    hold ``Process._resume``'s frame, whose ``self`` is that process; and
    the waiter's frame the throw put on the exception holds the waiter's
    locals, ``child`` among them.  Neither frame stays on it."""
    frames = []

    def run():
        env = Environment()
        children = []

        def failing():
            yield env.timeout(1.0)
            raise ValueError("boom")

        def driver():
            child = env.process(failing())
            children.append(child)
            try:
                yield child
            except ValueError:
                return "caught"

        assert env.run_process(driver()) == "caught"
        env.run()
        traceback = children[0]._exception.__traceback__  # noqa: SLF001
        while traceback is not None:
            frames.append(traceback.tb_frame.f_code.co_name)
            traceback = traceback.tb_next

    assert census(run)[0] == 0
    assert frames == ["failing"]  # from the generator's frame down
