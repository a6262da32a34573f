"""The boundary tracer: self-time arithmetic, tolerance, clean removal."""

import sys
import time
import types

import pytest

import e2e_paths  # noqa: F401 - sys.path first
from boundaries import BOUNDARIES
from tracer import BoundaryTracer


@pytest.fixture
def nest():
    """plain ``outer`` -> generator ``middle`` resumed three times ->
    plain ``leaf``; ``outer`` sleeps while ``middle`` is suspended."""
    module = types.ModuleType("e2e_synthetic_nest")

    def leaf():
        time.sleep(0.020)
        return "leaf"

    def middle():
        for _ in range(2):
            time.sleep(0.010)
            module.leaf()
            yield
        time.sleep(0.010)
        module.leaf()
        return "done"

    def outer():
        generator = module.middle()
        results = []
        try:
            while True:
                next(generator)
                time.sleep(0.030)  # real time passes, middle suspended
        except StopIteration as stop:
            results.append(stop.value)
        return results

    module.leaf, module.middle, module.outer = leaf, middle, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


NEST = {"e2e_synthetic_nest:outer": "a",
        "e2e_synthetic_nest:middle": "b",
        "e2e_synthetic_nest:leaf": "c"}


def test_self_time_excludes_children_and_suspension(nest):
    tracer = BoundaryTracer()
    tracer.install(NEST)
    try:
        assert nest.outer() == ["done"]
    finally:
        tracer.uninstall()
    layers = tracer.by_layer(tracer.totals())
    # One invocation each of outer and middle, three of leaf; the
    # generator is one span per resume.
    assert layers["a"]["calls"] == 1 and layers["a"]["spans"] == 1
    assert layers["b"]["calls"] == 1 and layers["b"]["spans"] == 3
    assert layers["c"]["calls"] == 3 and layers["c"]["spans"] == 3
    # leaf: 3 x 20 ms.  middle: 3 x 10 ms of its own -- neither leaf's
    # 60 ms nor the 2 x 30 ms it spent suspended.  outer: the 60 ms it
    # slept between resumes.  (Upper limits leave room for a loaded
    # host to oversleep; counting the suspension would put middle
    # at 90 ms or more.)
    assert 0.060 <= layers["c"]["self_s"] < 0.120
    assert 0.030 <= layers["b"]["self_s"] < 0.060
    assert 0.060 <= layers["a"]["self_s"] < 0.120
    total = sum(layer["self_s"] for layer in layers.values())
    outer_total = tracer.totals()[2][tracer.names.index(
        "e2e_synthetic_nest:outer")] / 1e9
    assert total == pytest.approx(outer_total, rel=1e-9)
    # Parents: leaf under middle under outer, all one request.
    spans = {span_id: (tracer.names[index], parent, request)
             for span_id, index, _s, _e, parent, request in tracer.raw}
    assert {request for _n, _p, request in spans.values()} == {1}
    for name, parent, _request in spans.values():
        if name.endswith(":leaf"):
            assert spans[parent][0].endswith(":middle")
        elif name.endswith(":middle"):
            assert spans[parent][0].endswith(":outer")
        else:
            assert parent == 0


def test_generator_proxy_passes_send_throw_and_close(nest):
    def echo():
        received = []
        try:
            while True:
                received.append((yield len(received)))
        except KeyError:
            yield "caught"
        finally:
            nest.closed = True

    nest.echo = echo
    tracer = BoundaryTracer()
    tracer.install({"e2e_synthetic_nest:echo": "a"})
    try:
        generator = nest.echo()
        assert next(generator) == 0
        assert generator.send("x") == 1
        assert generator.throw(KeyError("boom")) == "caught"
        generator.close()
    finally:
        tracer.uninstall()
    assert nest.closed
    assert tracer.by_layer(tracer.totals())["a"] == {
        "calls": 1, "spans": 4, "self_s": pytest.approx(0, abs=0.01)}

    def delegating():
        return (yield from nest.echo())

    tracer = BoundaryTracer()
    tracer.install({"e2e_synthetic_nest:echo": "a"})
    try:
        outer = delegating()
        assert next(outer) == 0 and outer.send("y") == 1
        outer.close()
    finally:
        tracer.uninstall()


def test_unresolved_boundary_is_tolerated_and_counted(nest):
    table = dict(NEST)
    table["e2e_synthetic_nest:renamed_away"] = "a"
    table["e2e_no_such_module:function"] = "b"
    table["e2e_synthetic_nest:missing.attribute"] = "c"
    tracer = BoundaryTracer()
    tracer.install(table)
    try:
        nest.outer()
    finally:
        tracer.uninstall()
    assert sorted(tracer.unresolved) == [
        "e2e_no_such_module:function",
        "e2e_synthetic_nest:missing.attribute",
        "e2e_synthetic_nest:renamed_away"]
    assert tracer.by_layer(tracer.totals())["c"]["calls"] == 3


def _attributes():
    """(boundary, owner, attribute, current value) for the real table."""
    out = []
    for name in BOUNDARIES:
        resolved = BoundaryTracer._resolve(name)
        assert resolved is not None, name
        out.append((name,) + resolved)
    return out


def test_wrappers_are_fully_removed_from_the_program():
    import repro
    import repro.warehouse.loader as loader
    before = _attributes()
    alias_before = (repro.generate_corpus, loader.parse_document)
    tracer = BoundaryTracer()
    tracer.install(BOUNDARIES)
    try:
        assert tracer.unresolved == []
        during = _attributes()
        assert all(now[3] is not then[3]
                   for now, then in zip(during, before))
        # ``from x import f`` copies inside the program are patched too.
        assert repro.generate_corpus is not alias_before[0]
        assert loader.parse_document is not alias_before[1]
    finally:
        tracer.uninstall()
    after = _attributes()
    assert all(now[3] is then[3] for now, then in zip(after, before))
    assert (repro.generate_corpus, loader.parse_document) == alias_before
    tracer.uninstall()  # idempotent


def test_properties_and_classmethods_keep_working_when_traced():
    from repro.cloud.dynamodb import DynamoItem
    from repro.xmldb import encoding
    from repro.xmldb.blocks import IDBlock
    from repro.xmldb.ids import NodeID
    ids = [NodeID(1, 4, 0), NodeID(2, 2, 1), NodeID(3, 3, 1)]
    item = DynamoItem(hash_key="k", range_key="r",
                      attributes={"a": ("xy",)})
    size = item.size_bytes
    tracer = BoundaryTracer()
    tracer.install(BOUNDARIES)
    try:
        block = IDBlock.from_encoded(encoding.encode_ids(ids))
        assert list(block.pres) == [1, 2, 3]
        assert item.size_bytes == size
    finally:
        tracer.uninstall()
    calls = dict(zip(tracer.names, tracer.totals()[0]))
    assert calls["repro.xmldb.blocks:IDBlock.from_encoded"] == 1
    assert calls["repro.xmldb.blocks:IDBlock.pres"] == 1
    assert calls["repro.xmldb.encoding:encode_ids"] == 1
    assert calls["repro.cloud.dynamodb:DynamoItem.size_bytes"] == 1


def test_chrome_trace_shape(nest):
    tracer = BoundaryTracer(raw_spans=4)
    tracer.install(NEST)
    try:
        nest.outer()
    finally:
        tracer.uninstall()
    trace = tracer.chrome_trace({"workload": "synthetic"})
    assert trace["otherData"] == {"workload": "synthetic"}
    events = trace["traceEvents"]
    assert len(events) == 4  # capped
    assert all(event["ph"] == "X" and event["dur"] >= 0
               and event["cat"] in "abc" for event in events)
    assert [event["ts"] for event in events] == sorted(
        event["ts"] for event in events)
