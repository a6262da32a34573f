"""The tracer contract a process's span state must keep now that it
lives on the process (``Process.base_span`` and ``Process.spans``)
instead of in tracer-side tables: inheritance outlives the spawner's
span and the child itself, each process nests under its own base span
however processes interleave, and the tracer holds no process once it
has finished.
"""

from __future__ import annotations

import gc

import pytest

from repro.sim import Environment, Meter
from repro.sim.process import Process
from repro.telemetry import TelemetryHub, Tracer

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

    finished = []

    def work(index):
        with hub.span("work", index=index):
            yield env.timeout(1.0)

    def driver():
        with hub.span("drive"):
            for index in range(50):
                finished.append(env.process(work(index), name="work"))
                yield finished[-1]

    env.run_process(driver(), name="driver")
    env.run()
    assert len(hub.tracer.spans) == 51
    assert [proc.spans for proc in finished] == [[]] * 50
    assert hub.tracer._main == []
    assert not hasattr(hub.tracer, "_bases")
    assert not hasattr(hub.tracer, "_stacks")
    del finished[:]
    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, Process) and obj.env is env]
    assert alive == []


def test_interleaved_processes_nest_under_their_own_base_span(env):
    hub = TelemetryHub(env)

    def worker(who):
        with hub.span("outer", who=who):
            yield env.timeout(1.0)
            with hub.span("inner", who=who):
                yield env.timeout(1.0)

    def driver():
        workers = []
        for who in ("a", "b"):
            with hub.span("spawn", who=who):
                workers.append(env.process(worker(who), name=who))
        for proc in workers:
            yield proc

    env.run_process(driver(), name="driver")
    by_key = {(span.name, span.attributes["who"]): span
              for span in hub.tracer.spans}
    for who in ("a", "b"):
        outer, inner = by_key["outer", who], by_key["inner", who]
        assert outer.parent_id == by_key["spawn", who].span_id
        assert inner.parent_id == outer.span_id
        assert (outer.track, inner.track) == (who, who)
        assert (outer.start, inner.start, inner.end) == (0.0, 1.0, 2.0)


def test_an_out_of_order_finish_keeps_the_rest_of_the_stack(env):
    tracer = Tracer(env)
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.finish(outer)
    assert tracer.current_span is inner
    child = tracer.begin("child")
    assert child.parent_id == inner.span_id
    tracer.finish(child)
    tracer.finish(inner)
    assert tracer.current_span is None
    assert [span.name for span in tracer.spans] == ["outer", "child",
                                                    "inner"]

    def proc():
        first = tracer.begin("first")
        second = tracer.begin("second")
        yield env.timeout(1.0)
        tracer.finish(first)
        assert tracer.current_span is second
        tracer.finish(second)
        assert tracer.current_span is None

    env.run_process(proc(), name="proc")
    assert tracer._main == []
