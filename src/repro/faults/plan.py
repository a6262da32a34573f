"""Declarative, seeded fault plans.

A :class:`FaultPlan` describes *what goes wrong* in a simulated cloud
run: transient request errors at a configurable rate or inside scheduled
windows, DynamoDB throttling bursts, added latency spikes, and
whole-instance crashes.  The plan itself is inert data — the
:class:`~repro.faults.injector.FaultInjector` attached to each service
interprets it, and the warehouse's chaos monkey interprets the crash
specs.  Everything is derived from one integer seed, so two runs of the
same plan produce byte-identical event orderings, simulated times and
meter records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError

#: Services a fault spec may target.
FAULT_SERVICES = ("s3", "dynamodb", "simpledb", "sqs", "ec2")

#: Fault kinds interpreted by the injector.
KIND_ERROR = "error"        # transient request error (500/503 class)
KIND_THROTTLE = "throttle"  # ProvisionedThroughputExceeded burst
KIND_LATENCY = "latency"    # added request latency
FAULT_KINDS = (KIND_ERROR, KIND_THROTTLE, KIND_LATENCY)

#: Stored-state damage kinds, interpreted by the
#: :class:`~repro.faults.corruption.CorruptionMonkey` (they mutate data
#: at rest rather than failing requests in flight).
KIND_CORRUPT_ITEM = "corrupt-item"            # bit-flip a stored item
KIND_DROP_PARTITION = "drop-table-partition"  # lose one hash-key group
DAMAGE_KINDS = (KIND_CORRUPT_ITEM, KIND_DROP_PARTITION)

#: Capacity / region fault kinds, interpreted by the serving runtime
#: (they reclaim instances or black out a region rather than failing
#: individual requests).
KIND_SPOT_INTERRUPT = "spot-interrupt"  # spot reclamation w/ 2-min warning
KIND_REGION_OUTAGE = "region-outage"    # whole-region blackout window

#: Worker roles a crash spec may target.
CRASH_ROLES = ("loader",)

#: Redrive bound of a chaotic deployment's dead-letter queues: a work
#: message whose lease lapses this many times is dead-lettered.
MAX_RECEIVE_COUNT = 5


@dataclass(frozen=True)
class FaultSpec:
    """One request-level fault rule.

    Attributes
    ----------
    service:
        Target service name (``"s3"``, ``"dynamodb"``, ...).
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Probability in ``[0, 1]`` that a matching request is affected.
    start_s / end_s:
        Optional simulated-time window; outside it the rule is dormant.
        ``end_s=None`` means "until the end of the run".
    latency_s:
        Extra latency added by :data:`KIND_LATENCY` rules.
    """

    service: str
    kind: str
    rate: float
    start_s: float = 0.0
    end_s: Optional[float] = None
    latency_s: float = 0.0

    def active_at(self, now: float) -> bool:
        """Whether the rule's time window covers simulated time ``now``
        (it applies to every data-path operation of its service)."""
        if now < self.start_s:
            return False
        return self.end_s is None or now < self.end_s


@dataclass(frozen=True)
class DamageSpec:
    """One stored-state damage rule (applied to a built index's tables).

    Physical table names are epoch-scoped and unknown at plan time, so
    ``table`` selects into the *sorted* physical table list of whatever
    index the damage is applied to; the exact victim items are drawn
    from the plan's seeded RNG, keeping damage byte-deterministic.
    """

    kind: str
    #: Index into the sorted physical tables of the damaged index.
    table: int = 0
    #: How many items (``corrupt-item``) or hash-key partitions
    #: (``drop-table-partition``) to damage.
    count: int = 1


@dataclass(frozen=True)
class SpotSpec:
    """One spot-interruption regime (:data:`KIND_SPOT_INTERRUPT`).

    ``rate`` is the expected number of interruptions per spot
    VM-hour; each spot instance draws its interruption instant from an
    exponential with that rate, seeded per instance id, so the storm is
    byte-deterministic.  ``warning_s`` is the notice lead time — the
    cloud's two-minute warning — between the
    :class:`~repro.serving.spot.InterruptionNotice` and forced reclaim.
    A regime lasts the whole run.
    """

    rate: float
    warning_s: float = 120.0


@dataclass(frozen=True)
class OutageSpec:
    """One scheduled region blackout (:data:`KIND_REGION_OUTAGE`).

    ``after_s`` is measured from the start of the serving phase (like
    :class:`CrashSpec`, the plan cannot know absolute times); for
    ``duration_s`` seconds every data-path request against the primary
    region's key-value store raises
    :class:`~repro.errors.RegionUnavailable`.
    """

    after_s: float
    duration_s: float


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled whole-instance crash.

    ``after_s`` is measured from the start of the targeted phase (the
    plan cannot know absolute build times in advance), ``worker`` is the
    index of the victim within the phase's fleet.
    """

    role: str
    after_s: float
    worker: int = 0


class FaultPlan:
    """A seeded collection of fault rules and crash schedules.

    Builder methods return ``self`` so plans read as one chained
    expression::

        plan = (FaultPlan(seed=7)
                .transient_errors("s3", rate=0.05)
                .transient_errors("sqs", rate=0.05)
                .crash(role="loader", after_s=3.0, worker=0))
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: List[FaultSpec] = []
        self._crashes: List[CrashSpec] = []
        self._damage: List[DamageSpec] = []
        self._spot: List[SpotSpec] = []
        self._outages: List[OutageSpec] = []

    # -- builders ----------------------------------------------------------

    def _add(self, spec: FaultSpec) -> "FaultPlan":
        if spec.service not in FAULT_SERVICES:
            raise ConfigError(
                "unknown fault service {!r}; known: {}".format(
                    spec.service, ", ".join(FAULT_SERVICES)))
        if spec.kind not in FAULT_KINDS:
            raise ConfigError("unknown fault kind {!r}".format(spec.kind))
        if not 0.0 <= spec.rate <= 1.0:
            raise ConfigError("fault rate must be in [0, 1]")
        if spec.end_s is not None and spec.end_s <= spec.start_s:
            raise ConfigError("fault window must end after it starts")
        if spec.latency_s < 0:
            raise ConfigError("latency_s must be non-negative")
        self._specs.append(spec)
        return self

    def transient_errors(self, service: str, rate: float) -> "FaultPlan":
        """Fail a fraction of ``service`` requests transiently."""
        return self._add(FaultSpec(service=service, kind=KIND_ERROR,
                                   rate=rate))

    def throttle(self, rate: float, service: str = "dynamodb",
                 start_s: float = 0.0,
                 end_s: Optional[float] = None) -> "FaultPlan":
        """Reject a fraction of key-value requests as throttled."""
        if service not in ("dynamodb", "simpledb"):
            raise ConfigError(
                "throttle faults target key-value stores, not {!r}".format(
                    service))
        return self._add(FaultSpec(service=service, kind=KIND_THROTTLE,
                                   rate=rate, start_s=start_s, end_s=end_s))

    def latency_spike(self, service: str, extra_s: float,
                      rate: float = 1.0) -> "FaultPlan":
        """Add ``extra_s`` seconds to a fraction of requests."""
        return self._add(FaultSpec(service=service, kind=KIND_LATENCY,
                                   rate=rate, latency_s=extra_s))

    def crash(self, role: str = "loader", after_s: float = 1.0,
              worker: int = 0) -> "FaultPlan":
        """Kill one worker instance ``after_s`` into its phase."""
        if role not in CRASH_ROLES:
            raise ConfigError(
                "unknown crash role {!r}; known: {}".format(
                    role, ", ".join(CRASH_ROLES)))
        if after_s < 0:
            raise ConfigError("crash after_s must be non-negative")
        if worker < 0:
            raise ConfigError("crash worker index must be non-negative")
        self._crashes.append(CrashSpec(role=role, after_s=after_s,
                                       worker=worker))
        return self

    def spot_interruptions(self, rate: float,
                           warning_s: float = 120.0) -> "FaultPlan":
        """Reclaim spot instances at ``rate`` interruptions per VM-hour."""
        if rate < 0:
            raise ConfigError("spot interruption rate must be non-negative")
        if warning_s < 0:
            raise ConfigError("spot warning_s must be non-negative")
        self._spot.append(SpotSpec(rate=rate, warning_s=warning_s))
        return self

    def region_outage(self, after_s: float,
                      duration_s: float) -> "FaultPlan":
        """Black out the primary region ``after_s`` into the serving
        phase."""
        if after_s < 0:
            raise ConfigError("outage after_s must be non-negative")
        if duration_s <= 0:
            raise ConfigError("outage duration_s must be positive")
        self._outages.append(OutageSpec(after_s=after_s,
                                        duration_s=duration_s))
        return self

    def _add_damage(self, spec: DamageSpec) -> "FaultPlan":
        if spec.kind not in DAMAGE_KINDS:
            raise ConfigError("unknown damage kind {!r}".format(spec.kind))
        if spec.table < 0:
            raise ConfigError("damage table index must be non-negative")
        if spec.count < 1:
            raise ConfigError("damage count must be >= 1")
        self._damage.append(spec)
        return self

    def corrupt_item(self, table: int = 0, count: int = 1) -> "FaultPlan":
        """Bit-flip ``count`` stored items of one index table."""
        return self._add_damage(DamageSpec(kind=KIND_CORRUPT_ITEM,
                                           table=table, count=count))

    def drop_table_partition(self, table: int = 0,
                             count: int = 1) -> "FaultPlan":
        """Silently lose ``count`` hash-key partitions of one table."""
        return self._add_damage(DamageSpec(kind=KIND_DROP_PARTITION,
                                           table=table, count=count))

    # -- queries -----------------------------------------------------------

    @property
    def specs(self) -> List[FaultSpec]:
        """All request-level rules, in insertion order."""
        return list(self._specs)

    @property
    def crashes(self) -> List[CrashSpec]:
        """All crash schedules, in insertion order."""
        return list(self._crashes)

    @property
    def damage(self) -> List[DamageSpec]:
        """All stored-state damage rules, in insertion order."""
        return list(self._damage)

    @property
    def spot_specs(self) -> List[SpotSpec]:
        """All spot-interruption regimes, in insertion order."""
        return list(self._spot)

    @property
    def outages(self) -> List[OutageSpec]:
        """All region-outage schedules, in insertion order."""
        return list(self._outages)

    def specs_for(self, service: str) -> List[FaultSpec]:
        """Rules targeting ``service``."""
        return [s for s in self._specs if s.service == service]

    def crashes_for(self, role: str) -> List[CrashSpec]:
        """Crash schedules targeting worker ``role``."""
        return [c for c in self._crashes if c.role == role]

    def __repr__(self) -> str:
        return "<FaultPlan seed={} specs={} crashes={}>".format(
            self.seed, len(self._specs), len(self._crashes))
