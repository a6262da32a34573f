"""Traffic generation: determinism, schedule shape, validation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.query.workload import WORKLOAD_ORDER
from repro.serving import TrafficGenerator, TrafficProfile
from repro.serving.traffic import (BURST_FACTOR, BURST_FRACTION,
                                   DIURNAL_AMPLITUDE, PERIOD_S)

pytestmark = pytest.mark.serving


def test_schedule_is_deterministic_for_a_seed():
    profile = TrafficProfile(arrival="poisson", rate_qps=2.0, queries=80,
                             seed=7)
    first = TrafficGenerator(profile).schedule()
    second = TrafficGenerator(TrafficProfile(
        arrival="poisson", rate_qps=2.0, queries=80, seed=7)).schedule()
    assert first == second


def test_different_seeds_differ():
    base = dict(arrival="poisson", rate_qps=2.0, queries=40)
    one = TrafficGenerator(TrafficProfile(seed=1, **base)).schedule()
    two = TrafficGenerator(TrafficProfile(seed=2, **base)).schedule()
    assert one != two


def test_schedule_shape():
    profile = TrafficProfile(arrival="burst", rate_qps=1.0, queries=60,
                             seed=11)
    schedule = TrafficGenerator(profile).schedule()
    assert len(schedule) == 60
    times = [t for t, _ in schedule]
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert {name for _, name in schedule} <= set(WORKLOAD_ORDER)


def test_burst_peak_rate_and_rate_at():
    assert (BURST_FACTOR, BURST_FRACTION, PERIOD_S) == (4.0, 0.25, 60.0)
    profile = TrafficProfile(arrival="burst", rate_qps=2.0)
    assert profile.peak_rate == 8.0
    assert profile.rate_at(1.0) == 8.0          # inside the burst window
    assert profile.rate_at(30.0) == 2.0         # outside it
    assert profile.rate_at(61.0) == 8.0         # next cycle


def test_diurnal_rate_oscillates():
    profile = TrafficProfile(arrival="diurnal", rate_qps=1.0)
    quarter = PERIOD_S / 4
    assert profile.peak_rate == pytest.approx(1.0 + DIURNAL_AMPLITUDE)
    assert profile.rate_at(quarter) == pytest.approx(1.0 + DIURNAL_AMPLITUDE)
    assert profile.rate_at(3 * quarter) == pytest.approx(
        1.0 - DIURNAL_AMPLITUDE)


def test_burst_schedule_is_front_loaded():
    """The burst window offers more arrivals than the quiet remainder."""
    profile = TrafficProfile(arrival="burst", rate_qps=1.0, queries=200,
                             seed=5)
    schedule = TrafficGenerator(profile).schedule()
    in_burst = sum(1 for t, _ in schedule if t % 60.0 < 15.0)
    # 15 s at 4 qps vs 45 s at 1 qps: expect roughly 60:45 in-burst.
    assert in_burst > len(schedule) // 2


def test_profile_validation():
    with pytest.raises(ConfigError):
        TrafficProfile(arrival="pareto")
    with pytest.raises(ConfigError):
        TrafficProfile(rate_qps=0.0)
    with pytest.raises(ConfigError):
        TrafficProfile(queries=0)
    with pytest.raises(ConfigError):
        TrafficProfile(mix=())


def test_mix_is_normalised_to_a_tuple():
    profile = TrafficProfile(mix=["q1", "q2"])
    assert profile.mix == ("q1", "q2")
