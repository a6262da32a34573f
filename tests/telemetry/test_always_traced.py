"""Every deployment is traced: results always carry spans and dollars.

A :class:`~repro.cloud.CloudProvider` installs its
:class:`~repro.telemetry.TelemetryHub` before it builds a service, so
nothing built on one runs untraced.  Pinned here from both sides: the
results of each kind of run carry resolvable span ids and priced
costs, and no module above the simulation kernel reads the hub as if
it might be missing.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.config import ScaleProfile
from repro.query.workload import workload_query
from repro.tenancy import TenancyConfig, TenantSpec
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

from tests.mutations.test_live import fresh_live, make_increment

pytestmark = pytest.mark.telemetry

DOCUMENTS = 12
SEED = 7
QUERIES = ("q1", "q2")


def _warehouse(deployment=None):
    warehouse = Warehouse(deployment=deployment)
    warehouse.upload_corpus(
        generate_corpus(ScaleProfile(documents=DOCUMENTS, seed=SEED)))
    return warehouse


def _queries():
    return [workload_query(name) for name in QUERIES]


def _assert_workload_traced(warehouse, report):
    tracer = warehouse.telemetry.tracer
    assert report.trace is tracer
    assert tracer.get(report.span_id).name == "workload"
    assert report.cost.total > 0
    for execution in report.executions:
        assert tracer.get(execution.span_id).name == "query"
        assert execution.cost.total > 0


# -- (a) every result carries its span ids and priced costs -----------------


def test_no_index_workload_is_traced_and_priced():
    warehouse = _warehouse()
    report = warehouse.run_workload(_queries(), None)
    assert {e.index_mode for e in report.executions} == {"none"}
    _assert_workload_traced(warehouse, report)


def test_degraded_chain_workload_is_traced_and_priced():
    warehouse = _warehouse()
    primary, _ = warehouse.build_index_checkpointed("2LUPI", loaders=2,
                                                    batch_size=4)
    fallback, _ = warehouse.build_index_checkpointed("LU", loaders=2,
                                                     batch_size=4)
    for table in primary.physical_tables:
        warehouse.health.mark(table, "suspect")
    report = warehouse.run_degraded_workload(_queries(),
                                             [primary, fallback])
    assert {e.downgrade for e in report.executions} == {"LU"}
    _assert_workload_traced(warehouse, report)


def test_two_tenant_serve_is_traced_and_priced():
    tenancy = TenancyConfig(tenants=(TenantSpec(name="alpha", weight=3.0),
                                     TenantSpec(name="beta")))
    warehouse = _warehouse({"loaders": 2, "batch_size": 4, "workers": 2,
                            "tenancy": tenancy})
    report = warehouse.serve(
        {"arrival": "poisson", "rate_qps": 2.0, "queries": 8, "seed": 7},
        warehouse.build_index("LUI"))
    tracer = warehouse.telemetry.tracer
    assert report.trace is tracer
    assert tracer.get(report.span_id).name == "serve"
    assert report.completed == len(report.queries) > 0
    assert all(outcome.cost > 0 for outcome in report.queries)
    assert report.request_cost > 0
    assert report.cost_tied_out and report.tenants_tied_out


def test_live_mutations_are_traced_and_priced():
    warehouse, live = fresh_live()
    added = warehouse.add_documents(live, make_increment(1), loaders=2)
    deleted = warehouse.delete_documents(
        live, [warehouse.corpus.documents[0].uri])
    compacted = warehouse.compact_index(live)
    tracer = warehouse.telemetry.tracer
    for report, name in ((added, "ingest-delta"), (deleted, "ingest-delta"),
                         (compacted, "compaction")):
        assert tracer.get(report.span_id).name == name
        assert report.span_cost is not None
        assert report.span_cost.total > 0
        assert report.cost_tied_out is True
    assert compacted.committed


# -- (b) no module above the kernel probes for a missing hub ----------------


SRC = pathlib.Path(repro.__file__).parent


def _probes(tree):
    """``(function, line)`` of every ``getattr(x, "telemetry", None)``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "getattr"
                    and len(child.args) == 3
                    and isinstance(child.args[1], ast.Constant)
                    and child.args[1].value == "telemetry"):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_only_the_kernel_and_the_hub_factory_probe_for_a_hub():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("sim/"):
            continue  # the kernel's hook is optional by design
        source = path.read_text(encoding="utf-8")
        for word in ("maybe_span", "_NullScope"):
            if word in source:
                offenders.append("{}: {}".format(relative, word))
        for function, line in _probes(ast.parse(source)):
            if (relative, function) == ("telemetry/__init__.py", "for_env"):
                continue
            offenders.append("{}:{} getattr(..., 'telemetry', None) in "
                             "{}".format(relative, line, function))
    assert offenders == []
