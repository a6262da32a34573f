"""Spot capacity: seeded interruptions, drain vs. reclaim, pricing."""

from __future__ import annotations

import json

import pytest

from repro.cloud import CloudProvider
from repro.config import ScaleProfile
from repro.faults import FaultPlan
from repro.faults.plan import SpotSpec
from repro.serving import (MARKET_ON_DEMAND, MARKET_SPOT, Autoscaler,
                           AutoscalePolicy, Fleet, SpotMarket, SpotPolicy)
from repro.serving.autoscaler import MAX_SPOT_INTERRUPTION_RATE
from repro.warehouse import Warehouse
from repro.warehouse.messages import QUERY_QUEUE
from repro.xmark import generate_corpus

pytestmark = pytest.mark.serving

QUEUE = QUERY_QUEUE


class DummyWorker:
    """Stands in for a QueryWorker: busy flag, drain hook, idle loop."""

    def __init__(self, env) -> None:
        self.env = env
        self.busy = False
        self.notices = []

    def request_drain(self, notice) -> None:
        self.notices.append(notice)

    def run(self):
        while True:
            yield self.env.timeout(3600.0)


@pytest.fixture
def cloud():
    provider = CloudProvider()
    provider.sqs.create_queue(QUEUE, visibility_timeout=30.0)
    return provider


def _fleet(cloud):
    return Fleet(cloud, "xl", lambda instance: DummyWorker(cloud.env))


def _wait(cloud, seconds):
    def waiter():
        yield cloud.env.timeout(seconds)
    cloud.env.run_process(waiter())


def _market(cloud, fleet, rate=3600.0, warning_s=5.0, seed=11):
    market = SpotMarket(cloud, fleet,
                        [SpotSpec(rate=rate, warning_s=warning_s)], seed)
    fleet.spot_market = market
    return market


# -- fleet composition and billing ----------------------------------------


def test_mixed_fleet_tracks_markets_and_hours(cloud):
    fleet = _fleet(cloud)
    fleet.launch(1)
    fleet.launch(1, market=MARKET_SPOT)
    assert fleet.size == 2
    assert fleet.spot_size == 1
    _wait(cloud, 3600.0)
    assert fleet.uptime_hours(MARKET_SPOT) == pytest.approx(1.0)
    assert fleet.uptime_hours(MARKET_ON_DEMAND) == pytest.approx(1.0)
    assert fleet.uptime_hours() == pytest.approx(2.0)


# -- notice delivery, drain, reclaim --------------------------------------


def test_idle_member_drains_immediately_on_notice(cloud):
    fleet = _fleet(cloud)
    market = _market(cloud, fleet)
    member = fleet.launch(1, market=MARKET_SPOT)[0]
    _wait(cloud, 100.0)
    assert market.interrupted_total == 1
    assert market.drained_total == 1
    assert market.reclaimed_total == 0
    assert member.worker.notices, "the two-minute warning must arrive"
    assert fleet.size == 0
    assert fleet.retired_busy_total == 0


def test_busy_member_is_reclaimed_at_the_deadline(cloud):
    fleet = _fleet(cloud)
    market = _market(cloud, fleet)
    member = fleet.launch(1, market=MARKET_SPOT)[0]
    member.worker.busy = True
    _wait(cloud, 100.0)
    notice = member.worker.notices[0]
    assert notice.deadline == pytest.approx(notice.issued_at + 5.0)
    assert market.reclaimed_total == 1
    assert market.drained_total == 0
    assert fleet.retired_busy_total == 1
    assert fleet.size == 0


def test_member_finishing_inside_the_warning_is_drained(cloud):
    fleet = _fleet(cloud)
    market = _market(cloud, fleet)
    member = fleet.launch(1, market=MARKET_SPOT)[0]
    member.worker.busy = True

    def finish_after_notice():
        while not member.worker.notices:
            yield cloud.env.timeout(0.1)
        yield cloud.env.timeout(1.0)      # well inside the 5 s warning
        member.worker.busy = False
        yield cloud.env.timeout(100.0)

    cloud.env.run_process(finish_after_notice())
    assert market.drained_total == 1
    assert market.reclaimed_total == 0
    assert fleet.retired_busy_total == 0


def test_interruption_storm_is_seed_deterministic():
    def storm():
        cloud = CloudProvider()
        cloud.sqs.create_queue(QUEUE, visibility_timeout=30.0)
        fleet = _fleet(cloud)
        market = _market(cloud, fleet, rate=7200.0, warning_s=1.0, seed=42)
        fleet.launch(3, market=MARKET_SPOT)
        _wait(cloud, 50.0)
        return [(n.instance_id, n.issued_at, n.deadline)
                for n in market.notices]

    first, second = storm(), storm()
    assert first == second
    assert first, "the storm must fire at this rate"


def test_observed_rate_counts_interruptions_per_spot_hour(cloud):
    fleet = _fleet(cloud)
    market = _market(cloud, fleet, rate=3600.0, warning_s=1.0)
    assert market.observed_rate() == 0.0
    fleet.launch(1, market=MARKET_SPOT)
    _wait(cloud, 100.0)
    hours = fleet.uptime_hours(MARKET_SPOT)
    assert market.observed_rate() == market.interrupted_total / hours


# -- price-aware scale-out ------------------------------------------------


def _scaler(cloud, fleet, spot=None):
    policy = AutoscalePolicy(min_workers=1, max_workers=4)
    return Autoscaler(cloud, policy, fleet, spot=spot)


def test_scale_out_without_spot_policy_buys_on_demand(cloud):
    fleet = _fleet(cloud)
    fleet.launch(1)
    assert _scaler(cloud, fleet).scale_out_market() == MARKET_ON_DEMAND


def test_scale_out_buys_spot_until_the_target_share_is_met(cloud):
    fleet = _fleet(cloud)
    fleet.launch(1)
    scaler = _scaler(cloud, fleet, spot=SpotPolicy(spot_fraction=0.5))
    assert scaler.scale_out_market() == MARKET_SPOT
    fleet.launch(1, market=MARKET_SPOT)
    assert scaler.scale_out_market() == MARKET_SPOT    # 1 < 0.5 * 3
    fleet.launch(1, market=MARKET_SPOT)
    assert scaler.scale_out_market() == MARKET_ON_DEMAND  # share met


def test_scale_out_falls_back_to_on_demand_during_a_storm(cloud):
    class StormyMarket:
        rate = MAX_SPOT_INTERRUPTION_RATE * 50

        def observed_rate(self):
            return self.rate

    fleet = _fleet(cloud)
    fleet.launch(1)
    fleet.spot_market = StormyMarket()
    scaler = _scaler(cloud, fleet, spot=SpotPolicy(spot_fraction=0.5))
    assert scaler.scale_out_market() == MARKET_ON_DEMAND
    StormyMarket.rate = MAX_SPOT_INTERRUPTION_RATE   # at the bound: calm
    assert scaler.scale_out_market() == MARKET_SPOT


# -- end to end through the serving runtime -------------------------------


def _serve_storm():
    plan = FaultPlan(seed=5).spot_interruptions(2400.0, warning_s=1.0)
    warehouse = Warehouse.deploy({
        "loaders": 2, "batch_size": 4,
        "autoscale": AutoscalePolicy(min_workers=2, max_workers=3),
        "spot": SpotPolicy(spot_fraction=0.5),
        "faults": plan})
    warehouse.upload_corpus(generate_corpus(
        ScaleProfile(documents=16, seed=77)))
    index = warehouse.build_index("LUI")
    report = warehouse.serve(
        {"arrival": "poisson", "rate_qps": 2.0, "queries": 30,
         "seed": 7}, index, tag="serve-storm-test")
    return warehouse, report


class TestStormServing:
    @pytest.fixture(scope="class")
    def served(self):
        return _serve_storm()

    def test_storm_fires_and_every_query_completes(self, served):
        _, report = served
        assert report.completed == 30
        assert report.spot_launched >= 1
        assert report.spot_interruptions >= 1
        assert (report.spot_drained + report.spot_reclaimed
                == report.spot_interruptions)

    def test_spot_hours_bill_at_the_spot_price(self, served):
        warehouse, report = served
        book = warehouse.cloud.price_book
        assert report.spot_vm_hours > 0
        assert report.spot_ec2_cost == pytest.approx(
            book.vm_hourly_spot(report.worker_type)
            * report.spot_vm_hours)
        assert report.ondemand_ec2_cost == pytest.approx(
            book.vm_hourly(report.worker_type)
            * report.ondemand_vm_hours)
        assert report.ec2_cost == (report.spot_ec2_cost
                                   + report.ondemand_ec2_cost)
        assert report.spot_ec2_cost < (
            book.vm_hourly(report.worker_type) * report.spot_vm_hours)

    def test_dollars_tie_out_exactly_under_the_storm(self, served):
        _, report = served
        assert report.cost_tied_out
        assert report.request_cost == report.estimator_request_cost

    def test_storm_report_is_byte_deterministic(self, served):
        _, report = served
        _, twin = _serve_storm()
        assert (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(twin.to_dict(), sort_keys=True))
