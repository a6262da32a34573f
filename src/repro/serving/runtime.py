"""The serving runtime: an open workload's arrival source and stages.

A :class:`ServingRuntime` serves one open workload on an
already-provisioned warehouse through the one query driver
(:class:`~repro.warehouse.driver.QueryDriver`), which submits, collects,
launches and drains the fleet, runs and prices.  What the runtime adds
is what only an open workload needs:

1. the arrival source: a :class:`~repro.serving.traffic.TrafficGenerator`
   schedule (one seeded stream per tenant, merged in time order) that a
   traffic process replays against the front end, asking the
   :class:`~repro.serving.admission.AdmissionController` at each arrival
   (a shed arrival never enqueues; a degraded one carries the flag into
   its ``QueryRequest``);
2. the stages the deployment turns on: the fair-share dispatcher, the
   :class:`~repro.serving.autoscaler.Autoscaler` (or a fixed fleet),
   the spot market, the region switch with its replicator and failover
   controller, and background feeds (live ingestion, compaction);
3. the completion rule: a collector process fetches responses as they
   appear (latency is the user's: arrival → results in hand), and the
   run ends once every admitted query has answered;
4. the :class:`~repro.serving.report.ServingReport`, folded from the
   driver's records, with the exact span-versus-estimator dollar
   tie-out (the run is one ``serve`` span under one meter tag).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.costs.estimator import CostBreakdown
from repro.errors import ConfigError, ProcessInterrupted
from repro.mutations.live import LiveIndex
from repro.query.pattern import Query
from repro.query.workload import workload_query
from repro.serving.admission import DEGRADE, SHED, AdmissionController
from repro.serving.autoscaler import Autoscaler
from repro.serving.report import QueryOutcome, ServingReport, percentile
from repro.serving.traffic import TrafficGenerator, TrafficProfile
from repro.tenancy import (DEFAULT_TENANT, SCHEDULER_FAIR, SHARED_TENANT,
                           FairShareQueue, TenantBill)
from repro.tenancy.billing import partition_costs, reconcile
from repro.warehouse.driver import QueryDriver
from repro.warehouse.fleet import MARKET_ON_DEMAND, MARKET_SPOT
from repro.warehouse.messages import QUERY_QUEUE

__all__ = ["ServingRuntime"]

#: How often the driver re-checks the completion condition (simulated
#: seconds).  Purely a bookkeeping poll — no metered requests.
COMPLETION_POLL_S = 0.25

#: How often the fair-share dispatcher re-checks its window when the
#: controller queue is empty or the query queue is full (simulated
#: seconds).  Bookkeeping only — no metered requests.
DISPATCH_POLL_S = 0.05

#: How many visible messages the fair-share dispatcher keeps on the
#: query queue.  A small window keeps the backlog at the controller,
#: where ordering is still a choice; the dispatcher widens it to the
#: live fleet size so it never starves the workers.
DISPATCH_WINDOW = 2


class ServingRuntime:
    """Serves one open workload; its stages stay on it for the report."""

    def __init__(self, warehouse: Any, profile: TrafficProfile,
                 index: Optional[Any],
                 background: Optional[Sequence[Any]] = None,
                 tag: Optional[str] = None) -> None:
        deployment = warehouse.deployment
        if deployment.failover and isinstance(index, LiveIndex):
            raise ConfigError("a live index cannot fail over yet: the "
                              "secondary region replicates no delta chain")
        self.warehouse = warehouse
        self.profile = profile
        self.index = index
        self.deployment = deployment
        #: Generator factories run alongside traffic (live-ingestion
        #: feeds, compaction tickers); the run waits for them to finish,
        #: and their metered requests bill into the serving tag/span.
        self.background = list(background or [])
        self.strategy_name = index.strategy.name if index else "none"
        self.tag = tag or "serve:{}:{}:{}".format(
            self.strategy_name, profile.arrival, next(warehouse._serve_ids))
        self.tenancy = deployment.tenancy
        mix_names = set(profile.mix)
        if self.tenancy is not None:
            for spec in self.tenancy.tenants:
                if spec.traffic is not None:
                    mix_names |= set(spec.traffic.mix)
        self._queries: Dict[str, Query] = {
            name: workload_query(name) for name in sorted(mix_names)}

    # -- pieces ------------------------------------------------------------

    def _degraded_lookups(self) -> Optional[Any]:
        """What makes each worker's degraded look-up, when admission can
        degrade arrivals; ``None`` otherwise.  A degraded query takes
        the degradation ladder's last rung: the full S3 scan, the
        paper's no-index path."""
        warehouse = self.warehouse
        admission = self.deployment.admission
        if admission is None or not admission.degradation_enabled:
            return None
        from repro.consistency.degradation import DegradingLookup
        return functools.partial(
            DegradingLookup, warehouse.cloud, [],
            warehouse._all_uris, warehouse.health)

    def _switched_index(self, switch: Any) -> Any:
        """A clone of the serving index whose store reads through the
        region switch (the warehouse's router under the same epoch, so
        cache keys line up with the primary-bound store's)."""
        from repro.warehouse.warehouse import BuiltIndex
        index = self.index
        store = self.warehouse._make_store(
            "dynamodb", seed=0, epoch=index.store.epoch, dynamodb=switch)
        return BuiltIndex(strategy=index.strategy, store=store,
                          table_names=dict(index.table_names),
                          report=index.report)

    def _register_manifest(self) -> Generator[Any, Any, None]:
        """Ensure the served index has a committed manifest record.

        Replication ships the manifest head; an index built outside the
        consistency pipeline (plain ``build_index``) has none, so the
        failover path registers one before traffic starts.  Idempotent:
        an existing committed record (live/consistency builds) wins.
        """
        from repro.consistency.manifest import EpochRecord, Manifest
        warehouse = self.warehouse
        index = self.index
        manifest = Manifest(warehouse.cloud.resilient.dynamodb)
        existing = yield from manifest.committed(index.strategy.name)
        if existing is not None:
            return
        record = EpochRecord(
            name=index.strategy.name, epoch=1, status="committed",
            strategy=index.strategy.name,
            tables=dict(index.table_names), ledger_table="",
            batches=index.report.batches,
            shards=warehouse.deployment.shards)
        yield from manifest.commit(record, expected_epoch=None)

    @staticmethod
    def _mean_fleet(timeline: List[Tuple[float, int]], start: float,
                    end: float) -> float:
        """Time-weighted mean fleet size over ``[start, end]``."""
        if not timeline:
            return 0.0
        if end <= start:
            return float(timeline[-1][1])
        weighted = 0.0
        for i, (t, size) in enumerate(timeline):
            t0 = max(t, start)
            t1 = timeline[i + 1][0] if i + 1 < len(timeline) else end
            t1 = min(t1, end)
            if t1 > t0:
                weighted += (t1 - t0) * size
        return weighted / (end - start)

    def _schedule(self) -> List[Tuple[float, str, str]]:
        """The arrivals as ``(offset, query name, tenant)``.

        Under tenancy each tenant has its own seeded stream (its own
        profile, or the shared one reseeded per tenant so streams
        differ), merged in time order.  The merge is
        scheduler-independent: the fair and FIFO arms replay identical
        arrivals.
        """
        profile = self.profile
        if self.tenancy is None:
            return [(offset, name, DEFAULT_TENANT) for offset, name in
                    TrafficGenerator(profile).schedule()]
        schedule = []
        for idx, spec in enumerate(self.tenancy.tenants):
            tenant_profile = spec.traffic
            if tenant_profile is None:
                tenant_profile = dataclasses.replace(
                    profile, seed=profile.seed + idx)
            for offset, name in TrafficGenerator(tenant_profile).schedule():
                schedule.append((offset, name, spec.name))
        schedule.sort(key=lambda item: (item[0], item[2], item[1]))
        return schedule

    # -- the run -----------------------------------------------------------

    def run(self) -> ServingReport:
        """Execute the serving run to completion; returns the report."""
        warehouse = self.warehouse
        cloud = warehouse.cloud
        env = cloud.env
        deployment = self.deployment
        tenancy = self.tenancy
        schedule = self._schedule()
        admission = self.admission = AdmissionController(
            cloud, deployment.admission, tenancy=tenancy,
            strategy=self.strategy_name)
        if tenancy is not None and any(
                spec.dollar_budget is not None
                for spec in tenancy.tenants):
            from repro.tenancy.billing import SpendTracker
            admission.spend_lookup = SpendTracker(
                cloud.telemetry.tracer, cloud.meter, cloud.price_book,
                tag_prefix=self.tag).spent

        plan = cloud.faults.plan if cloud.faults is not None else None
        spot_specs = plan.spot_specs if plan is not None else []
        outage_specs = plan.outages if plan is not None else []
        spot_policy = deployment.spot

        # Multi-region stack: a secondary provider on the same
        # simulation, a switchable store facade, and the replicator.
        switch = replicator = controller = None
        serving_index = self.index
        if deployment.failover and self.index is not None:
            from repro.cloud.provider import CloudProvider
            from repro.consistency.replication import ReplicatedManifest
            from repro.serving.failover import RegionSwitch
            secondary = CloudProvider(
                profile=cloud.profile, price_book=cloud.price_book,
                env=env, meter=cloud.meter)
            secondary.dynamodb.region = "secondary"
            switch = RegionSwitch(cloud.resilient.dynamodb,
                                  secondary.resilient.dynamodb,
                                  telemetry=cloud.telemetry)
            replicator = ReplicatedManifest(cloud, secondary)
            serving_index = self._switched_index(switch)
        if outage_specs:
            from repro.serving.failover import FailoverController
            controller = FailoverController(
                cloud, outage_specs, switch=switch, replicator=replicator,
                cache=warehouse.index_cache)
        self.switch, self.replicator, self.controller = \
            switch, replicator, controller

        # The failover path serves the region-switched clone, so the
        # workers follow the active region.
        driver = self.driver = QueryDriver(
            warehouse, deployment.worker_type, serving_index,
            degraded=self._degraded_lookups(), name="serve-worker")
        fleet = driver.fleet
        if spot_policy is not None and spot_specs:
            from repro.serving.spot import SpotMarket
            fleet.spot_market = SpotMarket(cloud, fleet, spot_specs,
                                           plan.seed)
        autoscaler = self.autoscaler = (
            Autoscaler(cloud, deployment.autoscale, fleet, spot=spot_policy)
            if deployment.autoscale is not None else None)
        initial = self.initial = (deployment.autoscale.min_workers
                                  if deployment.autoscale is not None
                                  else deployment.workers)
        launches: Any = initial
        if spot_policy is not None and spot_policy.spot_fraction > 0:
            spot_initial = min(
                initial, int(round(initial * spot_policy.spot_fraction)))
            launches = [(count, market) for count, market in (
                (initial - spot_initial, MARKET_ON_DEMAND),
                (spot_initial, MARKET_SPOT)) if count]

        redelivered_before = cloud.sqs.redelivered_count(QUERY_QUEUE)
        dead_before = cloud.sqs.dead_lettered_count(QUERY_QUEUE)
        outage_retries = cloud.telemetry.counter("outage_retries_total")
        retries_before = outage_retries.value()
        # The traffic baseline.  A failover deployment rebases it after
        # the replica's warm-up ship, so arrival offsets — and the fault
        # plan's serve-relative outage times — count from the moment the
        # deployment is actually ready to take traffic.
        self.start_at = env.now

        traffic_done = [False]
        fair_queue: Optional[FairShareQueue] = None
        if tenancy is not None and tenancy.scheduler == SCHEDULER_FAIR:
            fair_queue = FairShareQueue(tenancy.weights)

        def traffic() -> Generator[Any, Any, None]:
            for seq, (offset, name, tenant) in enumerate(schedule):
                delay = self.start_at + offset - env.now
                if delay > 0:
                    yield env.timeout(delay)
                decision = admission.decide(tenant)
                if decision == SHED:
                    continue
                if fair_queue is not None:
                    # Fair-share arm: the arrival is *admitted* now but
                    # held at the front door; the dispatcher releases it
                    # in weighted DRR order.  Latency still counts from
                    # here — controller queueing is the user's wait.
                    fair_queue.push(
                        tenant, (name, decision == DEGRADE, env.now))
                    continue
                # Submission runs in a child process so its SQS latency
                # cannot delay (or reorder) later arrivals.
                driver.spawn(
                    driver.submit(self._queries[name], name, tenant,
                                  decision == DEGRADE, env.now),
                    "serve-submit-{}".format(seq))
            traffic_done[0] = True

        def dispatcher() -> Generator[Any, Any, None]:
            # Releases held arrivals in DRR order, keeping just enough
            # visible on the query queue to feed the fleet: backlog kept
            # here stays reorderable, backlog on SQS is FIFO forever.
            # Submission is *inline* so every send completes (and the
            # approximate depth moves) before the next window check.
            assert fair_queue is not None
            while True:
                if not len(fair_queue):
                    if traffic_done[0]:
                        return
                    yield env.timeout(DISPATCH_POLL_S)
                    continue
                alive = sum(1 for m in fleet.members if m.proc.is_alive)
                window = max(DISPATCH_WINDOW, alive)
                if cloud.sqs.approximate_depth(QUERY_QUEUE) >= window:
                    failed = driver.failed_worker()
                    if failed is not None:
                        yield failed  # re-raises: the run fails with it
                    yield env.timeout(DISPATCH_POLL_S)
                    continue
                tenant, (name, degraded, arrived_at) = fair_queue.pop()
                yield from driver.submit(self._queries[name], name, tenant,
                                         degraded, arrived_at)

        def warm_up() -> Generator[Any, Any, None]:
            # The replica ships the manifest head, so make sure the
            # served index has one; then converge the replica with one
            # synchronous warm-up ship *before* taking traffic — the
            # initial full-table copy is the expensive part, and a
            # replica that never converged can never satisfy a
            # bounded-staleness failover.
            yield from self._register_manifest()
            yield from replicator.replicate_once()
            self.start_at = env.now

        def source() -> Generator[Any, Any, List[Any]]:
            spawn = driver.spawn
            repl_proc = (spawn(replicator.run(), "serve-replicator")
                         if replicator is not None else None)
            ctrl_proc = (spawn(controller.run(), "serve-failover")
                         if controller is not None else None)
            collect_proc = spawn(driver.collector(), "serve-collector")
            auto_proc = (spawn(autoscaler.run(), "serve-autoscaler")
                         if autoscaler is not None else None)
            traffic_proc = spawn(traffic(), "serve-traffic")
            dispatch_proc = (spawn(dispatcher(), "serve-dispatcher")
                             if fair_queue is not None else None)
            background_procs = [
                spawn(factory() if callable(factory) else factory,
                      "serve-background-{}".format(i))
                for i, factory in enumerate(self.background)]
            yield traffic_proc
            if dispatch_proc is not None:
                # Every held arrival must reach the queue before the
                # completion poll can mean anything.
                yield dispatch_proc
            # Dead-lettered queries (chaotic deployments only) will never
            # answer; without the correction the poll would spin forever.
            def outstanding() -> int:
                dead = (cloud.sqs.dead_lettered_count(QUERY_QUEUE)
                        - dead_before)
                return admission.admitted - dead - len(driver.fetched)
            while outstanding() > 0:
                failed = driver.failed_worker()
                if failed is not None:
                    yield failed  # re-raises: the run fails with it
                yield env.timeout(COMPLETION_POLL_S)
            for proc in (auto_proc, repl_proc, ctrl_proc, collect_proc):
                if proc is not None and proc.is_alive:
                    proc.interrupt(ProcessInterrupted("serving complete"))
            # Mutation feeds / compaction tickers may outlive traffic;
            # the run (and the fleet's rent) is not over until they are.
            # Every one is joined, so one that already failed re-raises.
            return background_procs

        driver.drive("serve", self.tag, launches, source,
                     warm_up=warm_up if replicator is not None else None,
                     strategy=self.strategy_name,
                     arrival=self.profile.arrival,
                     rate_qps=self.profile.rate_qps,
                     elastic=deployment.elastic)
        self.end_at = env.now
        return self._serving_report(
            cloud.sqs.redelivered_count(QUERY_QUEUE) - redelivered_before,
            int(outage_retries.value() - retries_before))

    # -- report assembly ---------------------------------------------------

    def _serving_report(self, redelivered: int,
                        outage_retries: int) -> ServingReport:
        """Fold the driver's records and the stages into the report."""
        driver = self.driver
        fleet = driver.fleet
        admission = self.admission
        autoscaler = self.autoscaler
        spot_market = fleet.spot_market
        controller = self.controller
        start_at, end_at = self.start_at, self.end_at
        book = self.warehouse.cloud.price_book
        deployment = self.deployment
        trace = self.warehouse.telemetry.tracer

        # Everything the serve emitted is priced once, for three folds
        # (the span roll-up last: it keeps the prices as its slots).
        estimator_breakdown = CostBreakdown()
        costs: Dict[str, Any] = {}

        def fold(priced: list) -> None:
            tagged = [pair for pair in priced
                      if pair[0].tag.startswith(self.tag)]
            for _, price in tagged:
                estimator_breakdown.accumulate(price)
            if self.tenancy is not None:
                costs.update(partition_costs(trace, tagged))

        inclusive = driver.price(fold)
        arrivals, fetched = driver.arrivals, driver.fetched
        latencies = [fetched[qid] - arrivals[qid] for qid in sorted(fetched)]
        duration = (max(fetched.values()) - start_at) if fetched \
            else (end_at - start_at)
        vm_hours = fleet.uptime_hours()
        spot_hours = fleet.uptime_hours(MARKET_SPOT)
        ondemand_hours = vm_hours - spot_hours
        spot_ec2 = (book.vm_hourly_spot(deployment.worker_type)
                    * spot_hours) if spot_hours > 0 else 0.0
        ondemand_ec2 = book.vm_hourly(deployment.worker_type) \
            * ondemand_hours
        ec2_cost = ondemand_ec2 + spot_ec2

        serve_span_id = driver.span.span_id
        span_breakdown = inclusive.get(serve_span_id)
        request_cost = (span_breakdown.total
                        if span_breakdown is not None else 0.0)
        total_cost = request_cost + ec2_cost
        completed = len(fetched)

        queries: List[QueryOutcome] = []
        for query_id in sorted(fetched):
            work = driver.stats.get(query_id)
            rollup = inclusive.get(work.span_id) if work is not None \
                else None
            queries.append(QueryOutcome(
                query_id=query_id,
                name=driver.names[query_id],
                arrived_at=arrivals[query_id] - start_at,
                response_s=fetched[query_id] - arrivals[query_id],
                degraded=query_id in driver.degraded,
                index_mode=work.index_mode if work is not None else "",
                cost=rollup.total if rollup is not None else 0.0,
                tenant=driver.tenants.get(query_id, DEFAULT_TENANT)))

        timeline = [(t - start_at, n) for t, n in fleet.timeline]
        return ServingReport(
            strategy_name=self.strategy_name,
            tag=self.tag,
            arrival=self.profile.arrival,
            rate_qps=self.profile.rate_qps,
            seed=self.profile.seed, worker_type=deployment.worker_type,
            elastic=deployment.elastic,
            offered=admission.offered,
            admitted=admission.admitted,
            shed=admission.shed,
            degraded=admission.degraded,
            completed=completed,
            redelivered=redelivered,
            duration_s=duration,
            p50_s=percentile(latencies, 50.0),
            p95_s=percentile(latencies, 95.0),
            p99_s=percentile(latencies, 99.0),
            mean_s=(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_s=max(latencies) if latencies else 0.0,
            initial_workers=self.initial,
            peak_workers=max((n for _, n in fleet.timeline), default=0),
            mean_workers=self._mean_fleet(fleet.timeline, start_at, end_at),
            launched=len(fleet.launched),
            retired=fleet.retired_total,
            retired_busy=fleet.retired_busy_total,
            scale_outs=autoscaler.scale_outs if autoscaler else 0,
            scale_ins=autoscaler.scale_ins if autoscaler else 0,
            fleet_timeline=timeline,
            spot_launched=sum(
                1 for member in fleet.launched
                if member.market == MARKET_SPOT),
            spot_interruptions=(spot_market.interrupted_total
                                if spot_market else 0),
            spot_drained=spot_market.drained_total if spot_market else 0,
            spot_reclaimed=(spot_market.reclaimed_total
                            if spot_market else 0),
            spot_vm_hours=spot_hours,
            ondemand_vm_hours=ondemand_hours,
            spot_ec2_cost=spot_ec2,
            ondemand_ec2_cost=ondemand_ec2,
            region_outages=controller.region_outages if controller else 0,
            failovers=controller.failovers if controller else 0,
            failbacks=controller.failbacks if controller else 0,
            failover_refusals=controller.refusals if controller else 0,
            stale_reads=(self.switch.stale_reads
                         if self.switch is not None else 0),
            replication_ships=(self.replicator.ships
                               if self.replicator else 0),
            outage_retries=outage_retries,
            outage_windows=[(a - start_at, b - start_at)
                            for a, b in (controller.outage_log
                                         if controller else [])],
            vm_hours=vm_hours,
            ec2_cost=ec2_cost,
            request_cost=request_cost,
            estimator_request_cost=estimator_breakdown.total,
            total_cost=total_cost,
            cost_per_query=(total_cost / completed) if completed else 0.0,
            request_breakdown={
                "s3": estimator_breakdown.s3,
                "dynamodb": estimator_breakdown.dynamodb,
                "simpledb": estimator_breakdown.simpledb,
                "sqs": estimator_breakdown.sqs,
            },
            queries=queries,
            tenant_bills=self._tenant_bills(estimator_breakdown, ec2_cost,
                                            costs),
            trace=trace,
            span_id=serve_span_id)

    def _tenant_bills(self, estimator_breakdown: Any, ec2_cost: float,
                      costs: Dict[str, Any]) -> List[TenantBill]:
        """Per-tenant bills whose columns sum exactly to the totals.

        Request dollars come from span-attributed record partitioning
        (``costs``, :func:`~repro.tenancy.billing.partition_costs` of
        the serve's tagged records); EC2 dollars are
        apportioned by each tenant's worker busy time.  Both columns
        are reconciled so their Python sums over the returned list
        equal ``estimator_breakdown.total`` and ``ec2_cost`` exactly —
        the residue of float re-association (and unattributed work)
        lands in the ``shared`` bill.
        """
        tenancy = self.tenancy
        if tenancy is None:
            return []
        driver, admission = self.driver, self.admission
        tenant_names = sorted(
            {spec.name for spec in tenancy.tenants}
            | (set(costs) - {SHARED_TENANT}))

        request_parts = [(name, costs[name].total if name in costs
                          else 0.0) for name in tenant_names]
        request_parts.append(
            (SHARED_TENANT, costs[SHARED_TENANT].total
             if SHARED_TENANT in costs else 0.0))
        request_dollars = reconcile(request_parts,
                                    estimator_breakdown.total)

        # EC2 by worker busy time: stats carry the wire tenant ("" for
        # the single-owner default); idle fleet time is shared.
        busy: Dict[str, float] = {}
        for work in driver.stats.values():
            owner = work.tenant or DEFAULT_TENANT
            busy[owner] = busy.get(owner, 0.0) + work.processing_s
        total_busy = sum(busy.values())
        ec2_parts = [(name,
                      ec2_cost * busy.get(name, 0.0) / total_busy
                      if total_busy else 0.0)
                     for name in tenant_names]
        ec2_parts.append((SHARED_TENANT, 0.0))
        ec2_dollars = reconcile(ec2_parts, ec2_cost)

        latencies: Dict[str, List[float]] = {}
        completed: Dict[str, int] = {}
        for query_id, fetched_at in driver.fetched.items():
            owner = driver.tenants.get(query_id, DEFAULT_TENANT)
            latencies.setdefault(owner, []).append(
                fetched_at - driver.arrivals[query_id])
            completed[owner] = completed.get(owner, 0) + 1

        bills = []
        for name in tenant_names + [SHARED_TENANT]:
            breakdown = costs.get(name)
            bills.append(TenantBill(
                tenant=name,
                queries=completed.get(name, 0),
                shed=admission.shed_by.get(name, 0),
                degraded=admission.degraded_by.get(name, 0),
                p50_s=percentile(sorted(latencies.get(name, [])), 50.0),
                p95_s=percentile(sorted(latencies.get(name, [])), 95.0),
                request_cost=request_dollars[name],
                ec2_cost=ec2_dollars[name],
                breakdown={
                    "s3": breakdown.s3, "dynamodb": breakdown.dynamodb,
                    "simpledb": breakdown.simpledb, "sqs": breakdown.sqs,
                } if breakdown is not None else {}))
        return bills
