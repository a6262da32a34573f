"""The serving runtime: traffic, admission, elastic fleet, report.

One :class:`ServingRuntime` drives a complete open-workload run on an
already-provisioned warehouse:

1. a :class:`~repro.serving.traffic.TrafficGenerator` materialises the
   arrival schedule; a traffic process replays it against the front
   end, consulting the :class:`~repro.serving.admission.
   AdmissionController` at each arrival (shed arrivals never enqueue;
   degraded ones carry the flag into their ``QueryRequest``);
2. a :class:`~repro.serving.autoscaler.Fleet` of long-lived
   :class:`~repro.warehouse.query_processor.QueryWorker` processes
   consumes the query queue, grown and shrunk by the
   :class:`~repro.serving.autoscaler.Autoscaler` (or held fixed when
   the deployment has no autoscale policy);
3. a collector process fetches responses as they appear (so measured
   latency is the user's: arrival → results in hand), deduplicating
   redelivered answers by query id;
4. when every admitted query has answered, workers drain through the
   usual poison pills, instances stop, and the run is folded into a
   :class:`~repro.serving.report.ServingReport` with the exact
   span-vs-estimator dollar tie-out.

The whole run executes under one ``serve`` span and one meter tag, so
the report's request dollars are attributable to the last float bit.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Generator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.costs.estimator import CostBreakdown, price_records
from repro.errors import ConfigError, ProcessInterrupted
from repro.mutations.live import LiveIndex
from repro.query.pattern import Query
from repro.query.workload import workload_query
from repro.serving.admission import DEGRADE, SHED, AdmissionController
from repro.serving.autoscaler import MARKET_SPOT, Autoscaler, Fleet
from repro.serving.report import QueryOutcome, ServingReport, percentile
from repro.serving.traffic import TrafficGenerator, TrafficProfile
from repro.tenancy import (DEFAULT_TENANT, SCHEDULER_FAIR, SHARED_TENANT,
                           FairShareQueue, TenantBill)
from repro.tenancy import QueryRequest as TenantQueryRequest
from repro.telemetry.costing import inclusive_costs
from repro.tenancy.billing import partition_costs, reconcile
from repro.warehouse.messages import QUERY_QUEUE
from repro.warehouse.query_processor import QueryWorkStats

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
    """Orchestrates one open-workload serving run."""

    def __init__(self, warehouse: Any, profile: TrafficProfile,
                 index: Optional[Any], deployment: Any,
                 degraded_indexes: Optional[Sequence[Any]] = None,
                 queries: Optional[Mapping[str, Query]] = None,
                 background: Optional[Sequence[Any]] = None,
                 tag: Optional[str] = None) -> None:
        if deployment.failover and isinstance(index, LiveIndex):
            raise ConfigError("a live index cannot fail over yet: the "
                              "secondary region replicates no delta chain")
        self.warehouse = warehouse
        self.profile = profile
        self.index = index
        self.deployment = deployment
        self.degraded_indexes = list(degraded_indexes or [])
        #: Generator factories run alongside traffic (live-ingestion
        #: feeds, compaction tickers); the run waits for them to finish,
        #: and their metered requests bill into the serving tag/span.
        self.background = list(background or [])
        self.strategy_name = index.strategy.name if index else "none"
        self.tag = tag or "serve:{}:{}:{}".format(
            self.strategy_name, profile.arrival, next(warehouse._serve_ids))
        self.tenancy = deployment.tenancy
        if queries is not None:
            self._queries: Dict[str, Query] = dict(queries)
        else:
            mix_names = set(profile.mix)
            if self.tenancy is not None:
                for spec in self.tenancy.tenants:
                    if spec.traffic is not None:
                        mix_names |= set(spec.traffic.mix)
            self._queries = {name: workload_query(name)
                             for name in sorted(mix_names)}

    # -- pieces ------------------------------------------------------------

    def _degraded_lookups(self) -> Optional[Any]:
        """What makes each worker's degraded look-up, when admission can
        degrade arrivals; ``None`` otherwise."""
        warehouse = self.warehouse
        admission = self.deployment.admission
        if admission is None or not admission.degradation_enabled:
            return None
        if self.degraded_indexes:
            from repro.consistency import DegradedIndexChain
            chain = DegradedIndexChain(
                warehouse.cloud, self.degraded_indexes,
                warehouse._all_uris, health=warehouse.health)
            return chain.make_lookup
        # No fallback indexes: degraded queries take the ladder's last
        # rung — the full S3 scan, the paper's no-index path.
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

    # -- the run -----------------------------------------------------------

    def run(self) -> ServingReport:
        """Execute the serving run to completion; returns the report."""
        warehouse = self.warehouse
        cloud = warehouse.cloud
        env = cloud.env
        deployment = self.deployment
        profile = self.profile

        tenancy = self.tenancy
        if tenancy is None:
            schedule = [(offset, name, DEFAULT_TENANT)
                        for offset, name in
                        TrafficGenerator(profile).schedule()]
        else:
            # One seeded arrival stream per tenant (its own profile, or
            # the shared profile reseeded per tenant so streams differ),
            # merged in time order.  The merge is scheduler-independent:
            # the fair and FIFO arms replay *identical* arrivals.
            schedule = []
            for idx, spec in enumerate(tenancy.tenants):
                tenant_profile = spec.traffic
                if tenant_profile is None:
                    tenant_profile = dataclasses.replace(
                        profile, seed=profile.seed + idx)
                for offset, name in \
                        TrafficGenerator(tenant_profile).schedule():
                    schedule.append((offset, name, spec.name))
            schedule.sort(key=lambda item: (item[0], item[2], item[1]))
        admission = AdmissionController(cloud, deployment.admission,
                                        tenancy=tenancy,
                                        strategy=self.strategy_name)
        if tenancy is not None and any(
                spec.dollar_budget is not None
                for spec in tenancy.tenants):
            from repro.tenancy.billing import SpendTracker
            admission.spend_lookup = SpendTracker(
                cloud.telemetry.tracer, cloud.meter, cloud.price_book,
                tag_prefix=self.tag).spent
        stats_sink: Dict[int, QueryWorkStats] = {}

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

        # The failover path serves the region-switched clone, so the
        # workers follow the active region.
        fleet = warehouse._query_fleet(
            deployment.worker_type, serving_index, stats_sink,
            degraded=self._degraded_lookups(), name="serve-worker")
        spot_market = None
        if spot_policy is not None and spot_specs:
            from repro.serving.spot import SpotMarket
            spot_market = SpotMarket(cloud, fleet, spot_specs, plan.seed)
            fleet.spot_market = spot_market
        autoscaler = (Autoscaler(cloud, deployment.autoscale, fleet,
                                 spot=spot_policy)
                      if deployment.autoscale is not None else None)
        initial = (deployment.autoscale.min_workers
                   if deployment.autoscale is not None
                   else deployment.workers)

        arrivals: Dict[int, float] = {}
        names: Dict[int, str] = {}
        fetched: Dict[int, float] = {}
        tenants: Dict[int, str] = {}
        degraded_ids: Set[int] = set()
        redelivered_before = cloud.sqs.redelivered_count(QUERY_QUEUE)
        dead_before = cloud.sqs.dead_lettered_count(QUERY_QUEUE)
        outage_retries = cloud.telemetry.counter("outage_retries_total")
        retries_before = outage_retries.value()
        # The traffic baseline.  A failover deployment rebases it after
        # the replica's warm-up ship (below), so arrival offsets — and
        # the fault plan's serve-relative outage times — count from the
        # moment the deployment is actually ready to take traffic.
        start_holder = [env.now]

        def submit_one(name: str, degraded: bool, arrived_at: float,
                       tenant: str = DEFAULT_TENANT,
                       ) -> Generator[Any, Any, None]:
            query = self._queries[name]
            query_id = yield from warehouse.frontend.submit(
                TenantQueryRequest(query=query, tenant=tenant, name=name,
                                   degraded=degraded))
            arrivals[query_id] = arrived_at
            names[query_id] = name
            tenants[query_id] = tenant
            if degraded:
                degraded_ids.add(query_id)

        traffic_done = [False]
        fair_queue: Optional[FairShareQueue] = None
        if tenancy is not None and tenancy.scheduler == SCHEDULER_FAIR:
            fair_queue = FairShareQueue(tenancy.weights)

        def traffic() -> Generator[Any, Any, None]:
            for seq, (offset, name, tenant) in enumerate(schedule):
                delay = start_holder[0] + offset - env.now
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
                env.process(
                    submit_one(name, decision == DEGRADE, env.now,
                               tenant),
                    name="serve-submit-{}".format(seq))
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
                    yield env.timeout(DISPATCH_POLL_S)
                    continue
                tenant, (name, degraded, arrived_at) = fair_queue.pop()
                yield from submit_one(name, degraded, arrived_at, tenant)

        def collector() -> Generator[Any, Any, None]:
            # Fetch responses as they appear; redelivered queries answer
            # twice, so dedup by query id (first response wins — it is
            # the one the user saw).
            try:
                while True:
                    result = yield from warehouse.frontend.await_response()
                    fetched.setdefault(result.query_id, result.fetched_at)
            except ProcessInterrupted:
                return

        def driver() -> Generator[Any, Any, None]:
            if replicator is not None:
                # The replica ships the manifest head, so make sure the
                # served index has one; then converge the replica with
                # one synchronous warm-up ship *before* taking traffic
                # — the initial full-table copy is the expensive part,
                # and a replica that never converged can never satisfy
                # a bounded-staleness failover.  Rebasing the baseline
                # keeps arrival offsets (and the fault plan's
                # serve-relative outage times) on the traffic clock.
                yield from self._register_manifest()
                yield from replicator.replicate_once()
                start_holder[0] = env.now
            if spot_policy is not None and spot_policy.spot_fraction > 0:
                spot_initial = min(
                    initial, int(round(initial * spot_policy.spot_fraction)))
                if initial - spot_initial:
                    fleet.launch(initial - spot_initial)
                if spot_initial:
                    fleet.launch(spot_initial, market=MARKET_SPOT)
            else:
                fleet.launch(initial)
            repl_proc = (env.process(replicator.run(),
                                     name="serve-replicator")
                         if replicator is not None else None)
            ctrl_proc = (env.process(controller.run(),
                                     name="serve-failover")
                         if controller is not None else None)
            collect_proc = env.process(collector(), name="serve-collector")
            auto_proc = (env.process(autoscaler.run(),
                                     name="serve-autoscaler")
                         if autoscaler is not None else None)
            traffic_proc = env.process(traffic(), name="serve-traffic")
            dispatch_proc = (env.process(dispatcher(),
                                         name="serve-dispatcher")
                             if fair_queue is not None else None)
            background_procs = [
                env.process(factory() if callable(factory) else factory,
                            name="serve-background-{}".format(i))
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
                return admission.admitted - dead - len(fetched)
            while outstanding() > 0:
                # A member still in the fleet (retirement and reclaim
                # remove theirs) that died of an error ends the run.
                for member in fleet.members:
                    if not (member.proc.is_alive or member.proc.ok):
                        yield member.proc
                yield env.timeout(COMPLETION_POLL_S)
            for proc in (auto_proc, repl_proc, ctrl_proc):
                if proc is not None and proc.is_alive:
                    proc.interrupt(
                        ProcessInterrupted("serving complete"))
            if collect_proc.is_alive:
                collect_proc.interrupt(
                    ProcessInterrupted("serving complete"))
            # Drain the fleet through the usual poison pills.  Mutation
            # feeds / compaction tickers may outlive traffic; the run
            # (and the fleet's rent) is not over until they are.  Every
            # one is joined, so one that already failed re-raises here.
            yield from fleet.stop(QUERY_QUEUE, outliving=background_procs)

        mark = cloud.meter.mark()
        with warehouse._span("serve", strategy=self.strategy_name,
                             arrival=profile.arrival,
                             rate_qps=profile.rate_qps,
                             elastic=deployment.elastic) as serve_span:
            with cloud.meter.tagged(self.tag):
                env.run_process(driver(), name="serve")
        start_at = start_holder[0]
        end_at = env.now

        retries = outage_retries.value() - retries_before
        return self._build_report(
            admission, fleet, autoscaler, arrivals, names, fetched,
            degraded_ids, stats_sink, start_at, end_at,
            redelivered_before, serve_span, initial, mark,
            spot_market=spot_market, controller=controller,
            replicator=replicator, switch=switch,
            outage_retries=int(retries), tenants=tenants)

    # -- report assembly ---------------------------------------------------

    def _build_report(self, admission: AdmissionController, fleet: Fleet,
                      autoscaler: Optional[Autoscaler],
                      arrivals: Dict[int, float], names: Dict[int, str],
                      fetched: Dict[int, float], degraded_ids: Set[int],
                      stats_sink: Dict[int, QueryWorkStats],
                      start_at: float, end_at: float,
                      redelivered_before: int, serve_span: Any,
                      initial: int, mark: int,
                      spot_market: Optional[Any] = None,
                      controller: Optional[Any] = None,
                      replicator: Optional[Any] = None,
                      switch: Optional[Any] = None,
                      outage_retries: int = 0,
                      tenants: Optional[Dict[int, str]] = None,
                      ) -> ServingReport:
        warehouse = self.warehouse
        cloud = warehouse.cloud
        book = cloud.price_book
        deployment = self.deployment

        trace = warehouse.telemetry.tracer
        # Everything the serve emitted follows ``mark`` and is priced
        # once, for three folds (the span roll-up last: it keeps the
        # prices as its slots).
        priced = price_records(cloud.meter.since(mark), book)
        tagged = [pair for pair in priced
                  if pair[0].tag.startswith(self.tag)]
        estimator_breakdown = CostBreakdown()
        for _, price in tagged:
            estimator_breakdown.accumulate(price)
        costs = partition_costs(trace, tagged) \
            if self.tenancy is not None else {}
        # The slots the report reads — the serve span's and each query
        # span's — all of spans opened after ``mark``.
        serve_span_id = serve_span.span_id
        inclusive = inclusive_costs(
            trace, priced,
            {serve_span_id} | {work.span_id for work in stats_sink.values()})

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

        span_breakdown = inclusive.get(serve_span_id)
        request_cost = (span_breakdown.total
                        if span_breakdown is not None else 0.0)
        total_cost = request_cost + ec2_cost
        completed = len(fetched)

        queries: List[QueryOutcome] = []
        for query_id in sorted(fetched):
            work = stats_sink.get(query_id)
            rollup = inclusive.get(work.span_id) if work is not None \
                else None
            cost = rollup.total if rollup is not None else 0.0
            queries.append(QueryOutcome(
                query_id=query_id,
                name=names[query_id],
                arrived_at=arrivals[query_id] - start_at,
                response_s=fetched[query_id] - arrivals[query_id],
                degraded=query_id in degraded_ids,
                index_mode=work.index_mode if work is not None else "",
                cost=cost,
                tenant=(tenants or {}).get(query_id, DEFAULT_TENANT)))

        tenant_bills = self._tenant_bills(
            admission, arrivals, fetched, tenants or {}, stats_sink,
            estimator_breakdown, ec2_cost, costs)

        timeline = [(t - start_at, n) for t, n in fleet.timeline]
        return ServingReport(
            strategy_name=self.strategy_name,
            tag=self.tag,
            arrival=self.profile.arrival,
            rate_qps=self.profile.rate_qps,
            seed=self.profile.seed,
            worker_type=deployment.worker_type,
            elastic=deployment.elastic,
            offered=admission.offered,
            admitted=admission.admitted,
            shed=admission.shed,
            degraded=admission.degraded,
            completed=completed,
            redelivered=(cloud.sqs.redelivered_count(QUERY_QUEUE)
                         - redelivered_before),
            duration_s=duration,
            p50_s=percentile(latencies, 50.0),
            p95_s=percentile(latencies, 95.0),
            p99_s=percentile(latencies, 99.0),
            mean_s=(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_s=max(latencies) if latencies else 0.0,
            initial_workers=initial,
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
            stale_reads=switch.stale_reads if switch is not None else 0,
            replication_ships=replicator.ships if replicator else 0,
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
            tenant_bills=tenant_bills,
            trace=trace,
            span_id=serve_span_id)

    def _tenant_bills(self, admission: AdmissionController,
                      arrivals: Dict[int, float],
                      fetched: Dict[int, float],
                      tenants: Dict[int, str],
                      stats_sink: Dict[int, QueryWorkStats],
                      estimator_breakdown: Any, ec2_cost: float,
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
        for work in stats_sink.values():
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
        for query_id in fetched:
            owner = tenants.get(query_id, DEFAULT_TENANT)
            latencies.setdefault(owner, []).append(
                fetched[query_id] - arrivals[query_id])
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
