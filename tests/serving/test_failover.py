"""Multi-region failover: switch, bounded staleness, failback exactness."""

from __future__ import annotations

import json

import pytest

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.consistency.manifest import MANIFEST_TABLE
from repro.consistency.replication import ReplicatedManifest
from repro.faults import FaultPlan
from repro.serving import FailoverController, RegionSwitch
from repro.serving.failover import MAX_STALENESS_S, PRIMARY, SECONDARY
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

pytestmark = pytest.mark.serving


class FakeStore:
    """Records every delegated call; answers reads with a sentinel."""

    def __init__(self, name) -> None:
        self.name = name
        self.calls = []

    def get(self, table, key):
        self.calls.append(("get", table, key))
        return {"from": self.name}

    def put(self, table, item):
        self.calls.append(("put", table))


class FakeCache:
    def __init__(self) -> None:
        self.calls = []

    def invalidate_tables(self, tables):
        self.calls.append(list(tables))
        return 3


# -- the region switch ----------------------------------------------------


def test_switch_delegates_to_the_active_region():
    primary, secondary = FakeStore("primary"), FakeStore("secondary")
    switch = RegionSwitch(primary, secondary, CloudProvider().telemetry)
    assert switch.get("t", "k") == {"from": "primary"}
    switch.flip(SECONDARY)
    assert switch.get("t", "k") == {"from": "secondary"}
    switch.flip(PRIMARY)
    assert switch.get("t", "k") == {"from": "primary"}
    assert not secondary.calls[1:]


def test_switch_counts_stale_reads_only_on_the_replica():
    switch = RegionSwitch(FakeStore("primary"), FakeStore("secondary"),
                          CloudProvider().telemetry)
    switch.get("t", "k")
    assert switch.stale_reads == 0
    switch.flip(SECONDARY)
    switch.get("words", "k1")
    switch.get("paths.s0", "k2")
    switch.put("words", object())          # writes are never "stale reads"
    assert switch.stale_reads == 2
    assert switch.tables_read == {"words", "paths.s0"}
    switch.flip(PRIMARY)
    switch.get("words", "k3")
    assert switch.stale_reads == 2


def test_switch_rejects_unknown_regions():
    switch = RegionSwitch(FakeStore("primary"), FakeStore("secondary"),
                          CloudProvider().telemetry)
    with pytest.raises(KeyError):
        switch.flip("mars")


# -- the controller's probe / failover / failback logic --------------------


class FakeReplicator:
    def __init__(self, applied_at) -> None:
        self.applied_at = applied_at
        self.ships = 1

    def staleness(self, now):
        if self.applied_at is None:
            return float("inf")
        return now - self.applied_at


def _controller(cloud, replicator, cache=None):
    switch = RegionSwitch(FakeStore("primary"), FakeStore("secondary"),
                          cloud.telemetry)
    controller = FailoverController(
        cloud, [], switch=switch, replicator=replicator, cache=cache)
    return controller, switch


def test_probe_refuses_when_the_replica_never_converged():
    cloud = CloudProvider()
    controller, switch = _controller(cloud, FakeReplicator(None))
    controller._probe(100.0)
    assert controller.refusals == 1
    assert controller.failovers == 0
    assert switch.active == PRIMARY


def test_probe_refuses_beyond_the_staleness_bound():
    cloud = CloudProvider()
    controller, switch = _controller(cloud, FakeReplicator(applied_at=0.0))
    controller._probe(MAX_STALENESS_S + 1)     # past the bound
    assert controller.refusals == 1
    assert switch.active == PRIMARY
    controller._probe(MAX_STALENESS_S)         # at the bound: flips
    assert controller.failovers == 1
    assert switch.active == SECONDARY
    controller._probe(MAX_STALENESS_S - 1)     # already flipped: no-op
    assert controller.failovers == 1


def test_failback_invalidates_exactly_the_replica_read_tables():
    cloud = CloudProvider()
    cache = FakeCache()
    controller, switch = _controller(cloud, FakeReplicator(0.0), cache)
    controller._probe(1.0)
    assert controller.failed_over
    switch.tables_read = {"lui-word.s0", "lui-word.s1"}
    switch.stale_reads = 5
    controller._failback()
    # Sharded physical names *and* their unsharded cache-key form, once.
    assert cache.calls == [["lui-word", "lui-word.s0", "lui-word.s1"]]
    assert controller.invalidated_entries == 3
    assert controller.failbacks == 1
    assert switch.active == PRIMARY
    assert switch.tables_read == set()


# -- end to end through the serving runtime -------------------------------


def _serve_outage(outage=True, tag="serve-outage-test"):
    plan = FaultPlan(seed=3)
    if outage:
        plan.region_outage(4.0, 6.0)
    warehouse = Warehouse.deploy({
        "loaders": 2, "batch_size": 4, "workers": 2,
        "failover": True,
        "faults": plan})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=16, seed=77)))
    index = warehouse.build_index("LUI")
    report = warehouse.serve(
        {"arrival": "poisson", "rate_qps": 2.0, "queries": 30,
         "seed": 7}, index, tag=tag)
    return warehouse, report


class TestOutageServing:
    @pytest.fixture(scope="class")
    def served(self):
        return _serve_outage()

    def test_outage_fails_over_and_back(self, served):
        _, report = served
        assert report.region_outages == 1
        assert report.failovers == 1
        assert report.failbacks == 1
        assert len(report.outage_windows) == 1
        started, ended = report.outage_windows[0]
        assert started == pytest.approx(4.0, abs=0.5)
        assert ended - started == pytest.approx(6.0, abs=0.5)

    def test_replica_serves_reads_during_the_blackout(self, served):
        _, report = served
        assert report.completed == 30
        assert report.stale_reads > 0
        assert report.replication_ships >= 1

    def test_dollars_tie_out_exactly_across_the_outage(self, served):
        _, report = served
        assert report.cost_tied_out
        assert report.request_cost == report.estimator_request_cost

    def test_outage_report_is_byte_deterministic(self, served):
        _, report = served
        _, twin = _serve_outage()
        assert (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(twin.to_dict(), sort_keys=True))

    def test_failback_manifest_matches_a_never_failed_twin(self, served):
        warehouse, report = served
        twin_warehouse, twin_report = _serve_outage(outage=False)
        assert twin_report.failovers == 0
        assert twin_report.completed == report.completed
        # The primary's manifest head never moved: after failback it is
        # byte-identical to a deployment that never saw the outage.
        failed = warehouse.cloud.dynamodb.table(
            MANIFEST_TABLE).all_items()
        never = twin_warehouse.cloud.dynamodb.table(
            MANIFEST_TABLE).all_items()
        assert (ReplicatedManifest._digest(failed)
                == ReplicatedManifest._digest(never))
