"""Autoscaler policy loop and fleet bookkeeping, driven signal by signal."""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider
from repro.serving import Autoscaler, AutoscalePolicy, Fleet

pytestmark = pytest.mark.serving

QUEUE = "unit-queries"


class DummyWorker:
    """Stands in for a QueryWorker: a busy flag and an idle process."""

    def __init__(self, env) -> None:
        self.env = env
        self.busy = False

    def run(self):
        while True:
            yield self.env.timeout(3600.0)


@pytest.fixture
def cloud():
    provider = CloudProvider()
    provider.sqs.create_queue(QUEUE, visibility_timeout=30.0)
    return provider


def _push(cloud, count):
    def sender():
        for i in range(count):
            yield from cloud.sqs.send(QUEUE, "m{}".format(i))
    cloud.env.run_process(sender())


def _scaler(cloud, fleet, **policy):
    defaults = dict(min_workers=1, max_workers=4, tick_s=1.0,
                    scale_out_depth=2.0, max_queue_age_s=1e9,
                    scale_in_idle_ticks=2, cooldown_s=0.0)
    defaults.update(policy)
    return Autoscaler(cloud, AutoscalePolicy(**defaults), fleet,
                      queue_name=QUEUE)


def test_backlog_pressure_scales_out(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet)
    _push(cloud, 5)                    # depth/worker = 5 > 2
    scaler.evaluate()
    assert fleet.size == 2
    assert scaler.scale_outs == 1


def test_scale_out_respects_max_workers_and_cooldown(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet, max_workers=2, cooldown_s=60.0,
                     scale_out_step=4)
    _push(cloud, 20)
    scaler.evaluate()
    assert fleet.size == 2             # step clamped to the ceiling
    scaler.evaluate()
    assert fleet.size == 2             # cooling: no second action
    assert scaler.scale_outs == 1


def test_idle_queue_scales_in_after_consecutive_ticks(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(3)
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=2)
    scaler.evaluate()                  # idle tick 1: no action yet
    assert fleet.size == 3
    scaler.evaluate()                  # idle tick 2: retire one
    assert fleet.size == 2
    assert scaler.scale_ins == 1


def test_scale_in_never_goes_below_the_floor(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=1)
    for _ in range(5):
        scaler.evaluate()
    assert fleet.size == 1
    assert scaler.scale_ins == 0


def test_drain_blocks_retiring_a_busy_worker(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    for member in fleet.members:
        member.worker.busy = True
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=1, drain=True)
    scaler.evaluate()
    scaler.evaluate()
    assert fleet.size == 2             # drain: nobody idle to retire
    assert fleet.retired_busy_total == 0


def test_no_drain_reclaims_a_busy_worker(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    for member in fleet.members:
        member.worker.busy = True
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=1, drain=False)
    scaler.evaluate()
    assert fleet.size == 1
    assert fleet.retired_busy_total == 1


def test_no_drain_prefers_an_idle_victim(cloud):
    # Regression: scale-in with drain disabled must still pick an idle
    # worker when one exists — a busy worker (whose lease would lapse
    # into redelivery) is reclaimed only as a last resort.
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    busy_member = fleet.members[0]
    busy_member.worker.busy = True
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=1, drain=False)
    scaler.evaluate()
    assert fleet.size == 1
    assert fleet.members == [busy_member]  # the idle one was retired
    assert fleet.retired_busy_total == 0
    assert scaler.scale_ins == 1


def test_fleet_timeline_and_uptime(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)

    def wait():
        yield cloud.env.timeout(5.0)
    cloud.env.run_process(wait())
    retired = fleet.members[-1]
    fleet.retire(retired)
    assert [size for _, size in fleet.timeline] == [2, 1]
    assert not retired.instance.running
    assert len(fleet.launched) == 2
    assert fleet.uptime_hours() > 0.0


def test_pressure_resets_the_idle_streak(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    scaler = _scaler(cloud, fleet, scale_in_idle_ticks=2, max_workers=2)
    scaler.evaluate()                  # idle tick 1
    _push(cloud, 10)                   # pressure arrives
    scaler.evaluate()                  # resets the streak (fleet at max)
    assert fleet.size == 2
    scaler.evaluate()                  # depth still high: no retirement
    assert fleet.size == 2
    assert scaler.scale_ins == 0
