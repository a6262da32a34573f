"""The tracer contract a process's base span must keep now that it
lives on the process (``Process.base_span``) instead of in a tracer-side
table: inheritance outlives the spawner's span and the child itself,
and the tracer holds no process once it has finished.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim import Environment, Meter
from repro.sim.process import Process
from repro.telemetry import TelemetryHub

pytestmark = pytest.mark.telemetry


def test_child_files_below_the_spawner_span_after_it_closed_and_after_exit():
    env = Environment()
    meter = Meter()
    hub = TelemetryHub(env, meter=meter)
    children = []

    def child():
        yield env.timeout(5.0)  # the spawner's span is long closed
        assert hub.current_span.name == "spawn"
        meter.record(env.now, "s3", "get")
        with hub.span("late-work", step=1):
            meter.record(env.now, "s3", "put")
            grandchild = env.process(leaf(), name="grandchild")
        yield grandchild

    def leaf():
        yield env.timeout(1.0)
        meter.record(env.now, "sqs", "send_message")

    def spawner():
        with hub.span("spawn"):
            children.append(env.process(child(), name="child"))
            yield env.timeout(1.0)
        assert hub.current_span is None
        yield env.timeout(10.0)
        # The child has finished; its inheritance is still readable.
        assert not children[0].is_alive
        assert children[0].base_span.name == "spawn"

    env.run_process(spawner(), name="spawner")
    by_name = {span.name: span for span in hub.tracer.spans}
    spawn, late = by_name["spawn"], by_name["late-work"]
    assert spawn.end == 1.0 and late.start == 5.0
    assert late.parent_id == spawn.span_id and late.track == "child"
    assert late.attributes == {"step": 1}
    assert [(rec.operation, rec.span_id) for rec in meter] == [
        ("get", spawn.span_id), ("put", late.span_id),
        ("send_message", late.span_id)]
    assert list(hub.tracer.ancestor_ids(late.span_id)) \
        == [late.span_id, spawn.span_id]


def test_a_process_spawned_outside_any_span_has_no_base_span(env):
    hub = TelemetryHub(env)

    def idle():
        yield env.timeout(1.0)
        assert hub.current_span is None and hub.current_span_id == 0

    proc = env.process(idle())
    assert proc.base_span is None
    env.run()
    assert hub.tracer.spans == []


def test_the_tracer_keeps_no_finished_process():
    env = Environment()
    hub = TelemetryHub(env)

    def work(index):
        with hub.span("work", index=index):
            yield env.timeout(1.0)

    def driver():
        with hub.span("drive"):
            for index in range(50):
                yield env.process(work(index), name="work")

    env.run_process(driver(), name="driver")
    env.run()
    assert len(hub.tracer.spans) == 51
    assert not hasattr(hub.tracer, "_bases")
    assert hub.tracer._stacks == {}
    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, Process) and obj.env is env]
    assert alive == []
