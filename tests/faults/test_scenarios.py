"""End-to-end chaos scenarios (tier-1, small corpora).

Each test runs a full baseline + chaos pipeline pair through
:func:`repro.faults.scenarios.run_scenario` and asserts the three §3
invariants: identical logical index, identical query answers, bounded
recovery cost — plus evidence that the chaos run really was chaotic.
"""

import pytest

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.faults.scenarios import run_scenario
from repro.query.workload import workload_query
from repro.warehouse import Warehouse
from repro.xmark import generate_corpus

DOCUMENTS = 12


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        run_scenario("meteor-strike")


@pytest.mark.chaos
def test_loader_crash_scenario_recovers_exactly_once():
    report = run_scenario("loader-crash", documents=DOCUMENTS)
    assert report.invariant_holds, report.render()
    assert report.chaos.crashed_instances == 1
    assert report.chaos.redelivered >= 1
    assert report.index_identical
    assert report.answers_identical
    # Recovery is not free: the crashed instance's work is redone and
    # a replacement VM is billed.
    assert report.cost_overhead > 0.0
    assert report.cost_bounded


@pytest.mark.chaos
def test_throttle_storm_scenario_is_absorbed_by_backoff():
    report = run_scenario("throttle-storm", documents=DOCUMENTS)
    assert report.invariant_holds, report.render()
    # Requests were actually rejected, and retries absorbed them.
    throttle_events = (report.chaos.fault_counts.get("dynamodb:throttle", 0)
                       + report.chaos.throttled)
    assert throttle_events > 0
    assert report.chaos.retry_counts.get("dynamodb", 0) > 0
    assert report.chaos.dead_lettered == 0


@pytest.mark.chaos
def test_flaky_network_scenario_is_retried_transparently():
    report = run_scenario("flaky-network", documents=DOCUMENTS,
                          error_rate=0.15)
    assert report.invariant_holds, report.render()
    assert sum(report.chaos.fault_counts.values()) > 0
    assert set(report.chaos.fault_counts) <= {
        "s3:error", "sqs:error", "s3:latency"}
    # No instances die in this scenario; retries do all the work.
    assert report.chaos.crashed_instances == 0


def _chaotic_meter_records(seed):
    """One full chaotic pipeline; returns every meter record."""
    corpus = generate_corpus(ScaleProfile(documents=8, seed=31))
    plan = (FaultPlan(seed=seed)
            .crash(role="loader", after_s=0.5, worker=0)
            .transient_errors("s3", rate=0.1))
    cloud = CloudProvider(fault_plan=plan)
    warehouse = Warehouse(cloud, deployment={"visibility_timeout": 6.0})
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index("LU", loaders=2, batch_size=2)
    warehouse.run_workload([workload_query("q1")], built, workers=1)
    return cloud.meter.records()


@pytest.mark.chaos
def test_same_fault_seed_gives_identical_meter_records():
    """Chaos is deterministic: the same FaultPlan seed reproduces the
    run event-for-event (every metered request at the same simulated
    time), and a different seed does not."""
    assert _chaotic_meter_records(42) == _chaotic_meter_records(42)
    assert _chaotic_meter_records(42) != _chaotic_meter_records(43)


def test_scrub_repair_requires_its_own_entry_point():
    with pytest.raises(ConfigError):
        run_scenario("scrub-repair")


@pytest.mark.chaos
@pytest.mark.scrub
def test_scrub_repair_scenario_heals_damage_at_rest():
    from repro.faults.scenarios import run_scrub_repair_scenario
    report = run_scrub_repair_scenario(documents=DOCUMENTS, seed=7)
    assert report.invariant_holds, report.render()
    # Every injected corruption was found...
    assert report.pre_scrub.checksum_failures >= report.corrupt_items
    assert report.pre_scrub.missing_entries > 0
    # ...queries over the damaged index degraded but stayed correct...
    assert report.degraded_answers == report.baseline_answers
    assert sum(report.downgrades.values()) > 0
    # ...and repair restored the tables byte-for-byte.
    assert report.verify_scrub.clean
    assert report.snapshot_identical
    assert report.repaired_answers == report.baseline_answers
    assert report.scrub_cost.total > 0.0
