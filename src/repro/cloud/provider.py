"""The cloud provider bundle: one of each service over a shared simulator.

A :class:`CloudProvider` is what the warehouse is deployed on: a fresh
simulation environment, a meter, and instances of S3, DynamoDB, SimpleDB,
EC2 and SQS all wired to them.  It corresponds to "an AWS account in one
region" in the paper's deployment.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.dynamodb import DynamoDB
from repro.cloud.ec2 import EC2
from repro.cloud.pricing_catalog import AWS_SINGAPORE, PriceBook
from repro.cloud.s3 import S3
from repro.cloud.simpledb import SimpleDB
from repro.cloud.sqs import SQS
from repro.config import DEFAULT_PROFILE, PerformanceProfile
from repro.faults import FaultDomain, FaultPlan
from repro.resilience import (ResilientClient, ResilientServices,
                              RetryPolicy)
from repro.sim import Environment, Meter
from repro.telemetry import TelemetryHub


class CloudProvider:
    """A full simulated cloud: environment + meter + the five services.

    Parameters
    ----------
    profile:
        Performance calibration (latencies, throughputs, CPU costs).
    price_book:
        Unit prices used by the cost model for this provider.
    env, meter:
        Optional pre-built environment/meter (e.g. to share a simulation
        across several providers); fresh ones are created by default.
    fault_plan:
        Optional chaos plan.  When given, every service gets a seeded
        fault injector and :attr:`resilient` wraps the services in the
        retry/breaker layer, its jitter seeded from the plan.  When
        omitted, nothing changes: the services carry no injector and
        :attr:`resilient` exposes the raw services themselves.
    """

    def __init__(self,
                 profile: Optional[PerformanceProfile] = None,
                 price_book: Optional[PriceBook] = None,
                 env: Optional[Environment] = None,
                 meter: Optional[Meter] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.profile = profile or DEFAULT_PROFILE
        self.price_book = price_book or AWS_SINGAPORE
        self.env = env or Environment()
        self.meter = meter or Meter()
        #: The provider's observability hub (tracer + metrics registry).
        #: Shared with any other provider on the same environment.
        self.telemetry = TelemetryHub.for_env(self.env, meter=self.meter)
        self.s3 = S3(self.env, self.meter, self.profile)
        self.dynamodb = DynamoDB(self.env, self.meter, self.profile)
        self.simpledb = SimpleDB(self.env, self.meter, self.profile)
        self.ec2 = EC2(self.env, self.meter)
        self.sqs = SQS(self.env, self.meter, self.profile)

        self.faults: Optional[FaultDomain] = None
        if fault_plan is not None:
            self.faults = FaultDomain(fault_plan, self.env, self.meter)
            for name in ("s3", "dynamodb", "simpledb", "sqs"):
                injector = self.faults.injector_for(name)
                if injector is not None:
                    getattr(self, name).attach_faults(injector)
            client = ResilientClient(self.env, self.meter,
                                     RetryPolicy(seed=fault_plan.seed))
            self.resilient = ResilientServices.wrapping(
                client, self.s3, self.dynamodb, self.simpledb, self.sqs)
        else:
            self.resilient = ResilientServices(
                self.s3, self.dynamodb, self.simpledb, self.sqs)

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.env.now

    def __repr__(self) -> str:
        return "<CloudProvider {}/{} t={:.3f}s>".format(
            self.price_book.provider, self.price_book.region, self.env.now)
