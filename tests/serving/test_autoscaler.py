"""Autoscaler policy loop and fleet bookkeeping, driven signal by signal."""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider
from repro.serving import Autoscaler, AutoscalePolicy, Fleet
from repro.serving.autoscaler import (COOLDOWN_S, SCALE_IN_IDLE_TICKS,
                                      SCALE_OUT_DEPTH)
from repro.warehouse.messages import QUERY_QUEUE

pytestmark = pytest.mark.serving

QUEUE = QUERY_QUEUE


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
    defaults = dict(min_workers=1, max_workers=4)
    defaults.update(policy)
    return Autoscaler(cloud, AutoscalePolicy(**defaults), fleet)


def _wait(cloud, seconds):
    def wait():
        yield cloud.env.timeout(seconds)
    cloud.env.run_process(wait())


def _idle_ticks(scaler, ticks=SCALE_IN_IDLE_TICKS):
    for _ in range(ticks):
        scaler.evaluate()


def test_backlog_pressure_scales_out(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet)
    _push(cloud, int(SCALE_OUT_DEPTH) + 1)   # depth/worker over the bar
    scaler.evaluate()
    assert fleet.size == 2
    assert scaler.scale_outs == 1


def test_scale_out_respects_max_workers_and_cooldown(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet, max_workers=3)
    _push(cloud, 40)
    scaler.evaluate()
    assert fleet.size == 2             # one instance per decision
    scaler.evaluate()
    assert fleet.size == 2             # cooling: no second action
    _wait(cloud, COOLDOWN_S)
    scaler.evaluate()
    assert fleet.size == 3             # cooled down: the ceiling
    _wait(cloud, COOLDOWN_S)
    scaler.evaluate()
    assert fleet.size == 3             # never past max_workers
    assert scaler.scale_outs == 2


def test_idle_queue_scales_in_after_consecutive_ticks(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(3)
    scaler = _scaler(cloud, fleet)
    _idle_ticks(scaler, SCALE_IN_IDLE_TICKS - 1)
    assert fleet.size == 3             # streak too short: no action yet
    scaler.evaluate()                  # the streak completes: retire one
    assert fleet.size == 2
    assert scaler.scale_ins == 1


def test_scale_in_never_goes_below_the_floor(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(1)
    scaler = _scaler(cloud, fleet)
    _idle_ticks(scaler, 2 * SCALE_IN_IDLE_TICKS)
    assert fleet.size == 1
    assert scaler.scale_ins == 0


def test_drain_blocks_retiring_a_busy_worker(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    for member in fleet.members:
        member.worker.busy = True
    scaler = _scaler(cloud, fleet, drain=True)
    _idle_ticks(scaler, 2 * SCALE_IN_IDLE_TICKS)
    assert fleet.size == 2             # drain: nobody idle to retire
    assert fleet.retired_busy_total == 0


def test_no_drain_reclaims_a_busy_worker(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    for member in fleet.members:
        member.worker.busy = True
    scaler = _scaler(cloud, fleet, drain=False)
    _idle_ticks(scaler)
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
    scaler = _scaler(cloud, fleet, drain=False)
    _idle_ticks(scaler)
    assert fleet.size == 1
    assert fleet.members == [busy_member]  # the idle one was retired
    assert fleet.retired_busy_total == 0
    assert scaler.scale_ins == 1


def test_fleet_timeline_and_uptime(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)

    _wait(cloud, 5.0)
    retired = fleet.members[-1]
    fleet.retire(retired)
    assert [size for _, size in fleet.timeline] == [2, 1]
    assert not retired.instance.running
    assert len(fleet.launched) == 2
    assert fleet.uptime_hours() > 0.0


def test_pressure_resets_the_idle_streak(cloud):
    fleet = Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))
    fleet.launch(2)
    scaler = _scaler(cloud, fleet, max_workers=2)
    _idle_ticks(scaler, SCALE_IN_IDLE_TICKS - 1)   # one tick short
    _push(cloud, 10)                   # pressure arrives
    scaler.evaluate()                  # resets the streak (fleet at max)
    assert fleet.size == 2
    scaler.evaluate()                  # depth still high: no retirement
    assert fleet.size == 2
    assert scaler.scale_ins == 0
