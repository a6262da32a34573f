"""Seeded open-workload traffic generation.

A :class:`TrafficProfile` describes an arrival process over the query
mix; a :class:`TrafficGenerator` turns it into a concrete, fully
deterministic arrival *schedule* — ``(arrival time, query name)``
pairs — before the simulation starts.  Pre-materialising the schedule
(rather than drawing inter-arrival gaps inside the sim process) keeps
the offered load independent of everything the runtime does: admission
decisions, fleet size and queue state cannot perturb when the next
query arrives, which is what makes the workload *open*.

Arrival processes (all driven by one ``random.Random(seed)`` stream):

``poisson``
    Homogeneous Poisson arrivals at ``rate_qps``.
``burst``
    Square-wave rate: ``rate_qps * BURST_FACTOR`` during the first
    ``BURST_FRACTION`` of each ``PERIOD_S`` cycle, ``rate_qps``
    otherwise.  The mean offered rate therefore *exceeds* ``rate_qps``
    — bursts are extra load, not redistributed load.
``diurnal``
    Sinusoidal rate ``rate_qps * (1 + A sin(2πt/PERIOD_S))`` with
    amplitude ``A = 0.8`` — a compressed day/night cycle.

Time-varying processes use Lewis–Shedler thinning against the peak
rate, so a schedule is reproducible from the seed alone.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import ConfigError
from repro.query.workload import WORKLOAD_ORDER

__all__ = ["TrafficProfile", "TrafficGenerator", "ARRIVAL_PROCESSES",
           "DIURNAL_AMPLITUDE", "BURST_FACTOR", "BURST_FRACTION",
           "PERIOD_S"]

#: Recognised arrival-process names.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "burst", "diurnal")

#: Fixed relative amplitude of the diurnal sinusoid.
DIURNAL_AMPLITUDE = 0.8

#: Rate multiplier during a ``burst`` cycle's burst.
BURST_FACTOR = 4.0

#: Share of each ``burst`` cycle spent bursting.
BURST_FRACTION = 0.25

#: Cycle length of ``burst`` and ``diurnal`` (simulated seconds).
PERIOD_S = 60.0


@dataclass(frozen=True)
class TrafficProfile:
    """A deterministic open-workload description.

    Attributes
    ----------
    arrival:
        One of :data:`ARRIVAL_PROCESSES`.
    rate_qps:
        Base arrival rate (queries per simulated second).
    queries:
        Total arrivals offered before the generator stops.
    mix:
        Query names drawn uniformly per arrival (default: the paper's
        ten-query workload).
    seed:
        Seeds the single RNG stream behind times *and* mix draws.

    The ``burst`` square wave and the ``diurnal`` cycle have a fixed
    shape: :data:`BURST_FACTOR`, :data:`BURST_FRACTION`,
    :data:`PERIOD_S` and :data:`DIURNAL_AMPLITUDE`.
    """

    arrival: str = "poisson"
    rate_qps: float = 1.0
    queries: int = 500
    mix: Tuple[str, ...] = field(default_factory=lambda: WORKLOAD_ORDER)
    seed: int = 20130318

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ConfigError(
                "TrafficProfile.arrival must be one of {}, got {!r}".format(
                    "/".join(ARRIVAL_PROCESSES), self.arrival))
        if self.rate_qps <= 0:
            raise ConfigError(
                "TrafficProfile.rate_qps must be > 0, got {}".format(
                    self.rate_qps))
        if self.queries < 1:
            raise ConfigError(
                "TrafficProfile.queries must be >= 1, got {}".format(
                    self.queries))
        if not self.mix:
            raise ConfigError("TrafficProfile.mix must not be empty")
        # Tuples only: the profile must stay hashable/frozen even when a
        # caller passes a list for the mix.
        object.__setattr__(self, "mix", tuple(self.mix))

    @property
    def peak_rate(self) -> float:
        """The largest instantaneous rate the process can reach."""
        if self.arrival == "burst":
            return self.rate_qps * BURST_FACTOR
        if self.arrival == "diurnal":
            return self.rate_qps * (1.0 + DIURNAL_AMPLITUDE)
        return self.rate_qps

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        if self.arrival == "burst":
            phase = t % PERIOD_S
            if phase < BURST_FRACTION * PERIOD_S:
                return self.rate_qps * BURST_FACTOR
            return self.rate_qps
        if self.arrival == "diurnal":
            return self.rate_qps * (
                1.0 + DIURNAL_AMPLITUDE *
                math.sin(2.0 * math.pi * t / PERIOD_S))
        return self.rate_qps


class TrafficGenerator:
    """Materialises a :class:`TrafficProfile` into an arrival schedule."""

    def __init__(self, profile: TrafficProfile) -> None:
        self.profile = profile
        self._schedule: List[Tuple[float, str]] = []

    def schedule(self) -> List[Tuple[float, str]]:
        """The full ``(arrival time, query name)`` schedule, memoised.

        Times are offsets from the start of serving; the list is
        strictly ordered and exactly ``profile.queries`` long.
        """
        if not self._schedule:
            rng = random.Random(self.profile.seed)
            peak = self.profile.peak_rate
            t = 0.0
            while len(self._schedule) < self.profile.queries:
                # Lewis-Shedler thinning: candidate gaps at the peak
                # rate, accepted with probability rate(t)/peak.
                t += rng.expovariate(peak)
                if rng.random() * peak <= self.profile.rate_at(t):
                    name = self.profile.mix[
                        rng.randrange(len(self.profile.mix))]
                    self._schedule.append((t, name))
        return self._schedule

    @property
    def duration_s(self) -> float:
        """Time of the last arrival in the schedule."""
        return self.schedule()[-1][0]
