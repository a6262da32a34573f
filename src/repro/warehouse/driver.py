"""One query run through the front end: submit, collect, run, price.

Paper §3 has one query path: the front end puts a query on SQS, a query
processor answers it into S3, and the front end collects the response.
A :class:`QueryDriver` is that path, once.  ``run_workload`` hands it a
closed arrival source (Figure 9) or a pipelined one (Figure 10) and
collects inline; :class:`~repro.serving.runtime.ServingRuntime` hands it
the open-loop traffic process and its stages, and collects in a
:meth:`QueryDriver.collector` process.  The driver keeps the per-query
records, builds, launches and drains the query fleet, runs the whole
under one phase span and meter tag, names the worker that failed a
run, and prices the run's meter records once.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.costs.estimator import price_records
from repro.errors import ProcessInterrupted, SimulationDeadlock
from repro.telemetry.costing import inclusive_costs
from repro.warehouse.fleet import MARKET_ON_DEMAND
from repro.warehouse.messages import QUERY_QUEUE, RESPONSE_QUEUE
from repro.warehouse.query_processor import QueryWorkStats

__all__ = ["QueryDriver"]


class QueryDriver:
    """One run of queries on one query fleet, and its records."""

    def __init__(self, warehouse: Any, instance_type: str,
                 index: Optional[Any],
                 degraded: Optional[Callable[[Any], Any]] = None,
                 name: str = "qworker") -> None:
        self._warehouse = warehouse
        #: Each answered query's worker-side measurements, by query id.
        self.stats: Dict[int, QueryWorkStats] = {}
        self.fleet = warehouse._query_fleet(instance_type, index, self.stats,
                                            degraded=degraded, name=name)
        #: Per query id: when it arrived (or, unless the arrival source
        #: says, when its submission landed), its name, its tenant...
        self.arrivals: Dict[int, float] = {}
        self.names: Dict[int, str] = {}
        self.tenants: Dict[int, str] = {}
        #: ...whether it was admitted degraded, and its first fetch.
        self.degraded: Set[int] = set()
        self.fetched: Dict[int, float] = {}
        #: The run's phase span, once :meth:`drive` opened it.
        self.span: Any = None
        self._mark = 0
        self._spawned: List[Any] = []

    # -- the front end ---------------------------------------------------------

    def submit(self, query: Any, name: str, tenant: Optional[str] = None,
               degraded: bool = False, arrived_at: Optional[float] = None,
               ) -> Generator[Any, Any, int]:
        """Post one query (steps 7-8) and record it; returns its id."""
        from repro.tenancy.envelope import QueryRequest
        from repro.tenancy.tenant import DEFAULT_TENANT
        tenant = tenant or DEFAULT_TENANT
        query_id = yield from self._warehouse.frontend.submit(QueryRequest(
            query=query, tenant=tenant, name=name, degraded=degraded))
        self.arrivals[query_id] = (self._warehouse.cloud.env.now
                                   if arrived_at is None else arrived_at)
        self.names[query_id] = name
        self.tenants[query_id] = tenant
        if degraded:
            self.degraded.add(query_id)
        return query_id

    def _collect(self) -> Generator[Any, Any, None]:
        """Take one response (steps 16-18).  Under chaos a lapsed lease
        makes two workers answer one query: the first response fixes
        the fetch time, and a repeat is consumed and dropped."""
        result = yield from self._warehouse.frontend.await_response()
        self.fetched.setdefault(result.query_id, result.fetched_at)

    def collect_all(self) -> Generator[Any, Any, None]:
        """Collect inline until every submitted query has answered."""
        fetched = self.fetched
        while not all(query_id in fetched for query_id in self.arrivals):
            yield from self._collect()

    def collector(self) -> Generator[Any, Any, None]:
        """Collect as responses appear, until interrupted."""
        try:
            while True:
                yield from self._collect()
        except ProcessInterrupted:
            return

    def spawn(self, body: Generator[Any, Any, Any], name: str) -> Any:
        """Start one of the run's own processes (interrupted if the run
        fails, so none of them takes the next run's messages)."""
        proc = self._warehouse.cloud.env.process(body, name=name)
        self._spawned.append(proc)
        return proc

    # -- the run -----------------------------------------------------------------

    def drive(self, name: str, tag: str,
              launches: Union[int, Sequence[Tuple[int, str]]],
              source: Callable[[], Generator[Any, Any, Sequence[Any]]],
              warm_up: Optional[Callable[[], Generator[Any, Any, None]]] = None,
              **attributes: Any) -> None:
        """Run ``source`` to completion in process ``name``.

        The process runs ``warm_up``, launches the fleet (``launches``
        on-demand members, or ``count`` members per ``(count, market)``
        pair), runs the arrival ``source``, then drains the fleet
        through its pills: ``source`` returns the processes the fleet
        must outlive.  All of it runs under span ``name`` (with
        ``attributes``) and meter tag ``tag``.
        """
        cloud = self._warehouse.cloud
        fleet = self.fleet
        if isinstance(launches, int):
            launches = [(launches, MARKET_ON_DEMAND)]

        def process() -> Generator[Any, Any, None]:
            # The run's own process is abandoned with its children: left
            # waiting on the response queue, it would take the next
            # run's first response.
            self._spawned.append(cloud.env.active_process)
            if warm_up is not None:
                yield from warm_up()
            for count, market in launches:
                fleet.launch(count, market)
            outliving = yield from source()
            yield from fleet.stop(QUERY_QUEUE, outliving=outliving or ())

        self._mark = cloud.meter.mark()
        with self._warehouse._span(name, **attributes) as self.span:
            with cloud.meter.tagged(tag):
                try:
                    cloud.env.run_process(process(), name=name)
                except Exception:
                    failed = self.failed_worker()
                    self._abandon()
                    if failed is None:
                        raise
                    try:
                        failed.value  # raises the worker's error
                    except Exception as error:
                        raise SimulationDeadlock(
                            "process {!r} cannot complete: worker {!r} "
                            "failed: {!r}".format(name, failed.name, error),
                        ) from error

    def failed_worker(self) -> Optional[Any]:
        """The process of a member still in the fleet that died of an
        error of its own (a crash or a retirement removes the member).
        Nobody answers its queries, so a run waiting for them stops."""
        for member in self.fleet.members:
            if not (member.proc.is_alive or member.proc.ok):
                return member.proc
        return None

    def _abandon(self) -> None:
        """Stop what a failed run left running and take back what it
        left queued: its own processes (a submission in flight would
        still land), every fleet member (an idle one would take the
        next run's queries into this run's records), and its messages.
        Runs on one warehouse never overlap, so every query, lease and
        response on the two query queues is this run's: left there, its
        unanswered queries would be answered ahead of the next run's."""
        for proc in self._spawned:
            if proc.is_alive:
                proc.interrupt(ProcessInterrupted("run failed"))
        for member in list(self.fleet.members):
            self.fleet.retire(member)
        sqs = self._warehouse.cloud.sqs
        for queue in (QUERY_QUEUE, RESPONSE_QUEUE):
            sqs.discard(queue)

    def price(self, fold: Optional[Callable[[list], None]] = None,
              ) -> Dict[int, Any]:
        """Price the run's meter records once.

        ``fold`` sees the ``(record, price)`` pairs first: the span fold
        keeps the prices as its slots.  Returns the inclusive cost of
        the run span and of each query span, by span id.
        """
        cloud = self._warehouse.cloud
        priced = price_records(cloud.meter.since(self._mark),
                               cloud.price_book)
        if fold is not None:
            fold(priced)
        return inclusive_costs(
            self._warehouse.telemetry.tracer, priced,
            {self.span.span_id} | {work.span_id
                                   for work in self.stats.values()})
