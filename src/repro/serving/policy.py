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

__all__ = ["AutoscalePolicy", "AdmissionPolicy", "SpotPolicy"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """When to grow and shrink the query-processor fleet.

    The autoscaler evaluates the policy on a fixed tick against two
    signals from the query queue — visible backlog per worker and the
    age of the oldest waiting message — exactly the signals a
    CloudWatch-driven scaling group would alarm on.  The tick, the two
    thresholds, the step, the idle streak and the cooldown are the
    constants of :mod:`repro.serving.autoscaler`; the policy holds what
    a deployment chooses.

    Attributes
    ----------
    min_workers / max_workers:
        Hard fleet bounds; the runtime starts at ``min_workers``.
    drain:
        If true (default), scale-in only retires an *idle* worker.  If
        false, scale-in still prefers an idle worker but may reclaim a
        busy one when none is idle (spot-style reclamation); the
        interrupted query's lease lapses and SQS redelivers it to a
        surviving worker under the at-least-once contract.
    """

    min_workers: int = 1
    max_workers: int = 4
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
    under :data:`~repro.serving.autoscaler.MAX_SPOT_INTERRUPTION_RATE`;
    past it, scale-out falls back to on-demand until the storm subsides
    — the price-aware decision of DESIGN.md par.14.

    Attributes
    ----------
    spot_fraction:
        Target fraction of the fleet on spot capacity, in ``[0, 1]``.
    """

    spot_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.spot_fraction <= 1.0:
            raise ConfigError(
                "SpotPolicy.spot_fraction must be in [0, 1], got "
                "{}".format(self.spot_fraction))
