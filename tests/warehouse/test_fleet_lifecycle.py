"""Every warehouse operation that runs a fleet leaves none running.

Builds (one-shot, under a loader crash, checkpointed), a delta
publication, a closed workload and a serving run each launch workers
through one :class:`~repro.warehouse.fleet.Fleet`.  After each, every
instance it launched is stopped or crashed, none is still running, and
the warehouse recorded the operation's phases.
"""

import pytest

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.faults import FaultPlan
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 12
SEED = 23
LOADERS = {"loaders": 2}


def _corpus(seed=SEED, documents=DOCUMENTS, prefix=""):
    corpus = generate_corpus(ScaleProfile(documents=documents, seed=seed))
    if prefix:
        corpus.data = {prefix + uri: data
                       for uri, data in corpus.data.items()}
        corpus.kinds = {prefix + uri: kind
                        for uri, kind in corpus.kinds.items()}
        for document in corpus.documents:
            document.uri = prefix + document.uri
    return corpus


def _warehouse(plan=None, workers=1):
    warehouse = Warehouse(CloudProvider(fault_plan=plan),
                          deployment={"visibility_timeout": 5.0,
                                      "batch_size": 2, "workers": workers})
    warehouse.upload_corpus(_corpus())
    return warehouse


def _after(warehouse, operation):
    """Run ``operation``; return the instances it launched and how many
    phases it recorded, checking that none of its instances runs on."""
    ec2 = warehouse.cloud.ec2
    before = len(ec2.instances())
    phases = len(warehouse.phases)
    result = operation()
    launched = ec2.instances()[before:]
    assert launched, "the operation launched no instance"
    assert not any(instance.running for instance in ec2.instances())
    assert all(instance.stopped_at is not None for instance in launched)
    return result, launched, len(warehouse.phases) - phases


def test_one_shot_build():
    warehouse = _warehouse()
    _, launched, phases = _after(
        warehouse, lambda: warehouse.build_index("LU", **LOADERS))
    assert (len(launched), phases) == (2, 1)
    assert not any(instance.crashed for instance in launched)


def test_one_shot_build_under_a_loader_crash():
    warehouse = _warehouse(
        FaultPlan(seed=5).crash(role="loader", after_s=0.5, worker=0))
    built, launched, phases = _after(
        warehouse, lambda: warehouse.build_index("LU", **LOADERS))
    assert [instance.crashed for instance in launched] \
        == [True, False, False]
    assert phases == 1
    assert built.report.documents >= DOCUMENTS


def test_checkpointed_build():
    warehouse = _warehouse()
    _, launched, phases = _after(
        warehouse,
        lambda: warehouse.build_index_checkpointed("LU", **LOADERS))
    assert (len(launched), phases) == (2, 1)


@pytest.mark.ingest
def test_delta_publication():
    warehouse = _warehouse()
    _, record = warehouse.build_index_checkpointed("LU", **LOADERS)
    live = warehouse.live_index(record.name)
    report, launched, phases = _after(
        warehouse, lambda: warehouse.add_documents(
            live, _corpus(seed=7001, documents=4, prefix="d-"),
            loaders=2))
    assert (len(launched), phases) == (2, 1)
    assert report.documents == 4


def test_closed_workload():
    warehouse = _warehouse()
    built = warehouse.build_index("LU", **LOADERS)
    queries = [workload_query(name) for name in ("q1", "q2")]
    report, launched, phases = _after(
        warehouse, lambda: warehouse.run_workload(
            queries, built, workers=3))
    assert (len(launched), phases) == (3, 1)
    assert len(report.executions) == 2


@pytest.mark.serving
def test_serving_run():
    warehouse = _warehouse(workers=2)
    built = warehouse.build_index("LU", **LOADERS)
    traffic = {"arrival": "poisson", "rate_qps": 2.0, "queries": 8,
               "seed": 7}
    report, launched, phases = _after(
        warehouse, lambda: warehouse.serve(traffic, built))
    assert (len(launched), phases) == (2, 0)
    assert report.completed == report.admitted


@pytest.mark.ingest
def test_delta_publication_under_a_loader_crash():
    # The plan's loader crashes land on a publication as on a build, and
    # the publication drains before its pills: the crashed loader's
    # batch is redelivered, so the delta is the fault-free one.
    def publish(plan):
        warehouse = Warehouse(CloudProvider(fault_plan=plan),
                              deployment={**LOADERS, "batch_size": 2})
        warehouse.upload_corpus(_corpus(seed=41))
        _, record = warehouse.build_index_checkpointed("LUI")
        live = warehouse.live_index(record.name)
        return _after(warehouse, lambda: warehouse.add_documents(
            live, _corpus(seed=7001, documents=8, prefix="d-")))

    calm, calm_launched, _ = publish(None)
    report, launched, phases = publish(
        FaultPlan(seed=5).crash(role="loader", after_s=0.5))
    assert not any(instance.crashed for instance in calm_launched)
    assert any(instance.crashed for instance in launched)
    assert phases == 1
    assert (report.digest, report.puts, report.documents) \
        == (calm.digest, calm.puts, calm.documents)
