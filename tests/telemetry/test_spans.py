"""Tracer unit tests: nesting, process inheritance, error marking."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.sim import Environment
from repro.telemetry import TelemetryHub, Tracer

pytestmark = pytest.mark.telemetry


def test_spans_nest_in_main_track(env):
    tracer = Tracer(env)
    with tracer.span("outer", kind="demo") as outer:
        with tracer.span("inner") as inner:
            assert tracer.current_span is inner
        assert tracer.current_span is outer
    assert tracer.current_span is None
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert outer.track == Tracer.MAIN_TRACK
    assert outer.attributes == {"kind": "demo"}
    assert len(tracer) == 2


def test_span_ids_are_sequential_from_one(env):
    tracer = Tracer(env)
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [span.span_id for span in tracer.spans] == [1, 2]


def test_span_times_come_off_the_simulated_clock(env):
    hub = TelemetryHub(env)

    def proc():
        with hub.span("work"):
            yield env.timeout(2.5)

    env.run_process(proc(), name="worker")
    (span,) = hub.tracer.spans
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration_s == 2.5
    assert span.track == "worker"


def test_child_process_inherits_spawner_span(env):
    hub = TelemetryHub(env)

    def child():
        with hub.span("child-work"):
            yield env.timeout(1.0)

    def parent():
        with hub.span("parent-work") as outer:
            task = env.process(child(), name="child")
            yield task
            assert hub.tracer.current_span is outer

    env.run_process(parent(), name="parent")
    by_name = {span.name: span for span in hub.tracer.spans}
    assert by_name["child-work"].parent_id \
        == by_name["parent-work"].span_id
    assert by_name["child-work"].track == "child"


def test_interleaved_processes_keep_separate_stacks(env):
    hub = TelemetryHub(env)

    def worker(name, delay):
        with hub.span("work", who=name):
            yield env.timeout(delay)

    def driver():
        first = env.process(worker("a", 2.0), name="a")
        second = env.process(worker("b", 1.0), name="b")
        yield first
        yield second

    env.run_process(driver(), name="driver")
    spans = {span.attributes["who"]: span for span in hub.tracer.spans}
    assert spans["a"].duration_s == 2.0
    assert spans["b"].duration_s == 1.0
    assert spans["a"].parent_id is None
    assert spans["b"].parent_id is None


def test_exception_marks_span_as_error(env):
    tracer = Tracer(env)
    with pytest.raises(ReproError):
        with tracer.span("doomed"):
            raise ReproError("boom")
    (span,) = tracer.spans
    assert span.error is True
    assert span.finished


def test_ancestor_ids_walk_to_the_root(env):
    tracer = Tracer(env)
    with tracer.span("a") as a:
        with tracer.span("b") as b:
            with tracer.span("c") as c:
                chain = list(tracer.ancestor_ids(c.span_id))
    assert chain == [c.span_id, b.span_id, a.span_id]


def test_hub_installs_itself_and_is_reused(env):
    hub = TelemetryHub(env)
    assert env.telemetry is hub
    assert TelemetryHub.for_env(env) is hub
