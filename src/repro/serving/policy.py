"""Autoscaling and admission policies.

Each is a frozen value object: validated at construction, hashable,
safe to embed in a :class:`~repro.warehouse.deployment.
DeploymentConfig`.  This module deliberately imports nothing from the
warehouse or cloud layers so the deployment config can depend on it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

__all__ = ["AutoscalePolicy", "AdmissionPolicy", "SpotPolicy",
           "FailoverPolicy"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to grow and shrink the query-processor fleet.

    The autoscaler evaluates the policy every ``tick_s`` simulated
    seconds against two signals from the query queue — visible backlog
    per worker and the age of the oldest waiting message — exactly the
    signals a CloudWatch-driven scaling group would alarm on.

    Attributes
    ----------
    min_workers / max_workers:
        Hard fleet bounds; the runtime starts at ``min_workers``.
    tick_s:
        Policy evaluation period (simulated seconds).
    scale_out_depth:
        Scale out when visible backlog per worker exceeds this.
    max_queue_age_s:
        ... or when the oldest visible message has waited longer than
        this (the latency-SLO guard: depth alone misses a slow trickle).
    scale_out_step:
        Instances added per scale-out decision.
    scale_in_idle_ticks:
        Consecutive ticks with an empty queue and an idle candidate
        worker before one instance is retired.
    cooldown_s:
        Minimum simulated seconds between scaling actions, in either
        direction — the standard guard against flapping.
    drain:
        If true (default), scale-in only retires an *idle* worker.  If
        false, scale-in still prefers an idle worker but may reclaim a
        busy one when none is idle (spot-style reclamation); the
        interrupted query's lease lapses and SQS redelivers it to a
        surviving worker under the at-least-once contract.
    """

    min_workers: int = 1
    max_workers: int = 4
    tick_s: float = 5.0
    scale_out_depth: float = 4.0
    max_queue_age_s: float = 30.0
    scale_out_step: int = 1
    scale_in_idle_ticks: int = 3
    cooldown_s: float = 15.0
    drain: bool = True

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ConfigError(
                "AutoscalePolicy.min_workers must be >= 1, got {}".format(
                    self.min_workers))
        if self.max_workers < self.min_workers:
            raise ConfigError(
                "AutoscalePolicy.max_workers must be >= min_workers "
                "({}), got {}".format(self.min_workers, self.max_workers))
        if self.tick_s <= 0:
            raise ConfigError(
                "AutoscalePolicy.tick_s must be > 0, got {}".format(
                    self.tick_s))
        if self.scale_out_depth <= 0:
            raise ConfigError(
                "AutoscalePolicy.scale_out_depth must be > 0, got "
                "{}".format(self.scale_out_depth))
        if self.max_queue_age_s <= 0:
            raise ConfigError(
                "AutoscalePolicy.max_queue_age_s must be > 0, got "
                "{}".format(self.max_queue_age_s))
        if self.scale_out_step < 1:
            raise ConfigError(
                "AutoscalePolicy.scale_out_step must be >= 1, got "
                "{}".format(self.scale_out_step))
        if self.scale_in_idle_ticks < 1:
            raise ConfigError(
                "AutoscalePolicy.scale_in_idle_ticks must be >= 1, got "
                "{}".format(self.scale_in_idle_ticks))
        if self.cooldown_s < 0:
            raise ConfigError(
                "AutoscalePolicy.cooldown_s must be >= 0, got {}".format(
                    self.cooldown_s))

    @property
    def fixed(self) -> bool:
        """Whether the policy degenerates to a fixed fleet."""
        return self.min_workers == self.max_workers


@dataclass(frozen=True)
class AdmissionPolicy:
    """When the front door sheds or degrades incoming queries.

    Evaluated synchronously at each arrival against the visible depth
    of the query queue.  Degradation reuses the crash-consistency
    ladder (2LUPI → LU → full scan) — a degraded query is answered from
    a coarser access path rather than queued behind its betters —
    while shedding rejects the arrival outright.

    Attributes
    ----------
    max_queue_depth:
        Arrivals finding this many visible messages are shed.
    degrade_queue_depth:
        Arrivals finding at least this many (but fewer than
        ``max_queue_depth``) are admitted degraded.  ``None`` disables
        degradation.
    """

    max_queue_depth: int = 50
    degrade_queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigError(
                "AdmissionPolicy.max_queue_depth must be >= 1, got "
                "{}".format(self.max_queue_depth))
        if self.degrade_queue_depth is not None:
            if self.degrade_queue_depth < 1:
                raise ConfigError(
                    "AdmissionPolicy.degrade_queue_depth must be >= 1, "
                    "got {}".format(self.degrade_queue_depth))
            if self.degrade_queue_depth >= self.max_queue_depth:
                raise ConfigError(
                    "AdmissionPolicy.degrade_queue_depth ({}) must be < "
                    "max_queue_depth ({})".format(
                        self.degrade_queue_depth, self.max_queue_depth))

    @property
    def degradation_enabled(self) -> bool:
        """Whether a degraded admission band exists at all."""
        return self.degrade_queue_depth is not None


@dataclass(frozen=True)
class SpotPolicy:
    """How much of the fleet rides the spot market.

    Spot capacity is priced from the book's ``vm_hour_spot`` column
    (roughly 30% of on-demand) but can be reclaimed with a two-minute
    warning.  The autoscaler keeps the fleet's spot share near
    ``spot_fraction`` while the *observed* interruption rate stays
    under ``max_interruption_rate``; past it, scale-out falls back to
    on-demand until the storm subsides — the price-aware decision of
    DESIGN.md par.14.

    Attributes
    ----------
    spot_fraction:
        Target fraction of the fleet on spot capacity, in ``[0, 1]``.
    max_interruption_rate:
        Observed interruptions per spot VM-hour above which scale-out
        stops buying spot.
    """

    spot_fraction: float = 0.5
    max_interruption_rate: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spot_fraction <= 1.0:
            raise ConfigError(
                "SpotPolicy.spot_fraction must be in [0, 1], got "
                "{}".format(self.spot_fraction))
        if self.max_interruption_rate < 0:
            raise ConfigError(
                "SpotPolicy.max_interruption_rate must be >= 0, got "
                "{}".format(self.max_interruption_rate))


@dataclass(frozen=True)
class FailoverPolicy:
    """When serving flips to the secondary-region manifest replica.

    The replica trails the primary by design — the replicator copies
    the manifest head every ``replication_interval_s`` and each copy
    lands ``replication_lag_s`` later — so failover is only safe under
    *bounded staleness*: the controller flips only while the replica's
    applied head is at most ``max_staleness_s`` behind, and records
    every read served off the stale replica.

    Attributes
    ----------
    replication_interval_s:
        How often the replicator ships the manifest head.
    replication_lag_s:
        Seeded transit delay before a shipped head applies remotely.
    probe_interval_s:
        How often the controller probes primary health during an
        outage (and, once failed over, for recovery).
    max_staleness_s:
        Upper bound on replica staleness for a failover to proceed;
        beyond it the controller refuses to flip and serving rides the
        degradation ladder instead.
    """

    replication_interval_s: float = 5.0
    replication_lag_s: float = 2.0
    probe_interval_s: float = 1.0
    max_staleness_s: float = 60.0

    def __post_init__(self) -> None:
        if self.replication_interval_s <= 0:
            raise ConfigError(
                "FailoverPolicy.replication_interval_s must be > 0, got "
                "{}".format(self.replication_interval_s))
        if self.replication_lag_s < 0:
            raise ConfigError(
                "FailoverPolicy.replication_lag_s must be >= 0, got "
                "{}".format(self.replication_lag_s))
        if self.probe_interval_s <= 0:
            raise ConfigError(
                "FailoverPolicy.probe_interval_s must be > 0, got "
                "{}".format(self.probe_interval_s))
        if self.max_staleness_s <= 0:
            raise ConfigError(
                "FailoverPolicy.max_staleness_s must be > 0, got "
                "{}".format(self.max_staleness_s))
