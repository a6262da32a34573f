"""Command-line front end (the AMADA demo [4] analogue).

The paper's companion demo let visitors load Web data into the cloud
warehouse, pick an indexing strategy and watch queries run with their
monetary cost.  This CLI does the same over the simulated substrate::

    repro-warehouse generate --documents 200 --out /tmp/corpus
    repro-warehouse demo --documents 200 --strategy LUP --queries q1,q5
    repro-warehouse advise --documents 200 --runs 25
    repro-warehouse chaos --scenario loader-crash --documents 24
    repro-warehouse scrub --documents 24 --strategy 2LUPI --damage corrupt-item
    repro-warehouse resume --documents 24 --strategy LUP --interrupt-after 4
    repro-warehouse trace --documents 60 --out /tmp/trace.json
    repro-warehouse workload --documents 60 --runs 3 --cache-bytes 262144
    repro-warehouse serve --seed 7 --strategy 2LUPI --autoscale
    repro-warehouse ingest --documents 24 --strategy LUI --increments 3
    repro-warehouse xquery '//painting[/name{val}][/year="1854"]'
    repro-warehouse prices --provider google

Every subcommand is a plain function taking parsed args and returning
an exit code, so the test suite drives them directly.  The deployment
flags (``--strategy``, ``--backend``, ``--instances``, ``--workers``,
``--instance-type``, ``--batch-size``, ``--shards``, ``--cache-bytes``)
come from one shared parser — :func:`add_deployment_args` — and are
folded into a single :class:`~repro.warehouse.deployment.
DeploymentConfig` by :func:`_deployment`, so ``serve``, ``workload``,
``demo``, ``trace`` and ``scrub`` all provision the warehouse the same
way.  All output flows through one
:class:`~repro.bench.reporting.Reporter`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.advisor import IndexAdvisor
from repro.bench.reporting import Reporter, format_money, format_table
from repro.config import ScaleProfile
from repro.costs.estimator import build_phase_cost, phase_cost, query_cost
from repro.costs.metrics import DatasetMetrics
from repro.costs.pricing import price_book, render_table3
from repro.faults.scenarios import (SCENARIO_NAMES, run_scenario,
                                    run_scrub_repair_scenario)
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.parser import parse_query
from repro.query.workload import WORKLOAD_ORDER, workload, workload_query
from repro.query.xquery import to_xquery
from repro.warehouse import Warehouse
from repro.warehouse.monitoring import resource_report
from repro.xmark import generate_corpus

#: Every subcommand writes through this reporter (stdout at call time).
out = Reporter()

#: Index-store backends shared by every ``--backend`` flag.
BACKEND_CHOICES = ("dynamodb", "simpledb")

#: Backends a checkpointed (epoch/ledger) build supports.
CHECKPOINT_BACKENDS = ("dynamodb",)


def _corpus(args) -> "Corpus":  # noqa: F821
    return generate_corpus(ScaleProfile(documents=args.documents,
                                        document_bytes=args.document_kb
                                        * 1024,
                                        seed=args.seed))


def _strategy_name(value: str) -> str:
    """argparse type for ``--strategy``: case-insensitive, validated."""
    name = value.upper()
    if name not in ALL_STRATEGY_NAMES:
        raise argparse.ArgumentTypeError(
            "unknown strategy {!r}; choose from {}".format(
                value, ", ".join(ALL_STRATEGY_NAMES)))
    return name


def _deployment(args) -> dict:
    """Deployment-config overrides from the shared deployment flags.

    Subcommands without a given flag fall back to the
    :class:`~repro.warehouse.deployment.DeploymentConfig` default, so
    the dict is safe to build from any parsed namespace.
    """
    return {"loaders": getattr(args, "instances", 4),
            "backend": getattr(args, "backend", "dynamodb"),
            "batch_size": getattr(args, "batch_size", 8),
            "workers": getattr(args, "workers", 1),
            "worker_type": getattr(args, "instance_type", "xl"),
            "shards": getattr(args, "shards", 1),
            "cache_bytes": getattr(args, "cache_bytes", 0)}


def _apply_resilience(args, deployment: dict) -> None:
    """Fold the spot / failover flags into a deployment-override dict.

    ``--spot-fraction`` and ``--failover`` set policies;
    ``--interruption-rate`` and a ``--failover AFTER:DURATION`` value
    also grow a seeded :class:`~repro.faults.FaultPlan` so the chaos
    actually happens.
    """
    from repro.faults import FaultPlan
    from repro.serving import FailoverPolicy, SpotPolicy

    plan = deployment.get("faults")
    spot_fraction = getattr(args, "spot_fraction", 0.0)
    rate = getattr(args, "interruption_rate", 0.0)
    failover = getattr(args, "failover", None)
    if spot_fraction:
        deployment["spot"] = SpotPolicy(spot_fraction=spot_fraction)
    if rate > 0:
        plan = plan if plan is not None else FaultPlan(seed=args.seed)
        plan.spot_interruptions(rate=rate)
    if failover is not None:
        deployment["failover"] = FailoverPolicy()
        if failover:
            try:
                after_s, duration_s = (float(part)
                                       for part in failover.split(":"))
            except ValueError:
                raise SystemExit(
                    "--failover expects AFTER:DURATION in seconds "
                    "(e.g. --failover 40:20), got {!r}".format(failover))
            plan = plan if plan is not None else FaultPlan(seed=args.seed)
            plan.region_outage(after_s=after_s, duration_s=duration_s)
    if plan is not None:
        deployment["faults"] = plan


def _require_checkpoint_backend(args) -> None:
    if args.backend not in CHECKPOINT_BACKENDS:
        raise SystemExit(
            "checkpointed builds support only the {} backend".format(
                "/".join(CHECKPOINT_BACKENDS)))


def cmd_generate(args) -> int:
    """Generate a corpus; optionally write the XML files to a directory."""
    corpus = _corpus(args)
    out.line("generated {} documents, {:.2f} MB (seed {})".format(
        len(corpus), corpus.total_mb, args.seed))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for uri, data in sorted(corpus.data.items()):
            with open(os.path.join(args.out, uri), "wb") as handle:
                handle.write(data)
        out.line("wrote XML files to {}".format(args.out))
    stats = corpus.stats()
    out.line("labels: {}   distinct paths: {}   max depth: {}".format(
        len(stats.label_counts), len(stats.distinct_paths),
        stats.max_depth))
    return 0


def _parse_query_names(spec: str) -> List[str]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    for name in names:
        if name not in WORKLOAD_ORDER:
            raise SystemExit(
                "unknown workload query {!r}; choose from {}".format(
                    name, ", ".join(WORKLOAD_ORDER)))
    return names


def cmd_demo(args) -> int:
    """Full pipeline: upload, build one index, run queries, show costs."""
    corpus = _corpus(args)
    warehouse = Warehouse(deployment=_deployment(args))
    warehouse.upload_corpus(corpus)
    out.line("uploaded {} documents ({:.2f} MB)".format(
        len(corpus), corpus.total_mb))

    index = warehouse.build_index(args.strategy)
    report = index.report
    book = warehouse.cloud.price_book
    out.line("built {} in {:.1f}s simulated on {} {} instances; "
             "{} puts, {:.2f} MB stored, cost {}".format(
                 report.strategy_name, report.total_s, report.instances,
                 report.instance_type, report.puts,
                 report.stored_bytes / 2 ** 20,
                 format_money(
                     build_phase_cost(warehouse, index, book).total)))

    names = _parse_query_names(args.queries) if args.queries \
        else list(WORKLOAD_ORDER)
    dataset = DatasetMetrics.of_corpus(corpus)
    rows = []
    for name in names:
        query = workload_query(name)
        execution = warehouse.run_query(query, index)
        rows.append([name, "{:.3f}s".format(execution.response_s),
                     execution.docs_from_index,
                     execution.docs_with_results,
                     execution.result_rows,
                     format_money(query_cost(execution, dataset, book))])
    out.table(["query", "response", "docs idx", "docs res",
               "rows", "cost"], rows)
    if args.monitor:
        out.blank()
        out.line(resource_report(warehouse).render())
    return 0


def cmd_advise(args) -> int:
    """Run the index advisor on the expected corpus and workload."""
    corpus = _corpus(args)
    advisor = IndexAdvisor(corpus.stats())
    estimates = advisor.estimate_all(workload())
    rows = [[name,
             format_money(estimate.build_cost),
             format_money(estimate.monthly_storage),
             format_money(estimate.workload_cost),
             format_money(estimate.total_cost(args.runs))]
            for name, estimate in estimates.items()]
    out.table(["strategy", "build", "storage/mo", "per run",
               "total @{} runs".format(args.runs)], rows)
    choice = advisor.recommend(workload(), runs=args.runs)
    out.line("recommendation: {}".format(choice.strategy_name))
    return 0


def cmd_chaos(args) -> int:
    """Run a chaos scenario: same workload with and without faults.

    Exit status 0 iff the recovery invariants hold — identical index,
    identical answers, bounded cost overhead.
    """
    _require_checkpoint_backend(args)
    if args.scenario == "scrub-repair":
        report = run_scrub_repair_scenario(
            documents=args.documents, seed=args.seed,
            strategy=args.strategy, instances=args.instances)
    else:
        report = run_scenario(
            args.scenario, documents=args.documents, seed=args.seed,
            strategy=args.strategy, instances=args.instances,
            error_rate=args.error_rate, crash_after_s=args.crash_after)
    out.line(report.render())
    return 0 if report.invariant_holds else 1


def cmd_scrub(args) -> int:
    """Build a checkpointed index, optionally damage it, then scrub it.

    Prints one summary line per scrub (items scanned, checksum
    failures, invariant violations, repairs) plus the manifest's epoch
    list.  Exit status 0 iff the index ends up clean.
    """
    from repro.consistency import Manifest
    from repro.faults import FaultPlan
    from repro.faults.corruption import CorruptionMonkey

    _require_checkpoint_backend(args)
    warehouse = Warehouse(deployment=_deployment(args))
    warehouse.upload_corpus(_corpus(args))
    built, record = warehouse.build_index_checkpointed(args.strategy)
    out.line("built {} epoch {} ({} batches, digest {})".format(
        record.name, record.epoch, record.batches, record.digest[:12]))

    if args.damage:
        plan = FaultPlan(seed=args.seed)
        for kind in args.damage.split(","):
            kind = kind.strip()
            if kind == "corrupt-item":
                plan.corrupt_item(table=0, count=args.damage_count)
            elif kind == "drop-table-partition":
                plan.drop_table_partition(
                    table=len(built.physical_tables) - 1,
                    count=args.damage_count)
            else:
                raise SystemExit(
                    "unknown damage kind {!r}; choose from "
                    "corrupt-item, drop-table-partition".format(kind))
        monkey = CorruptionMonkey(warehouse.cloud, seed=args.seed)
        for entry in monkey.damage_index(built, plan.damage):
            out.line("damaged: {}".format(entry))

    report = warehouse.scrub_index(built, record.name, record.epoch,
                                   repair=not args.no_repair)
    out.line(report.summary_line())
    if report.repaired:
        verify = warehouse.scrub_index(built, record.name, record.epoch,
                                       repair=False)
        out.line(verify.summary_line())
        clean = verify.clean
    else:
        clean = report.clean
    manifest = Manifest(warehouse.cloud.dynamodb)
    out.line("epochs: {}".format(
        "; ".join("{} e{} {}".format(r.name, r.epoch, r.status)
                  for r in manifest.list_records()) or "none"))
    return 0 if clean else 1


def cmd_resume(args) -> int:
    """Interrupt a checkpointed build, then resume it to completion.

    The loader fleet is crashed ``--interrupt-after`` simulated seconds
    into the build; ``resume`` purges stale deliveries, re-enqueues only
    ledger-missing batches and commits.  Exit status 0 iff the resumed
    epoch committed.
    """
    _require_checkpoint_backend(args)
    warehouse = Warehouse(deployment=_deployment(args))
    warehouse.upload_corpus(_corpus(args))
    plan = warehouse.plan_build(args.strategy)
    first = warehouse.run_build(plan, interrupt_after_s=args.interrupt_after)
    out.line("build {} e{}: interrupted={} applied {}/{} batches".format(
        plan.name, plan.epoch, first.interrupted, first.applied_batches,
        len(plan.batches)))
    result, record = warehouse.resume_build(plan)
    out.line("resume {} e{}: applied {}/{} batches "
             "(skipped {} redelivered) committed={}".format(
                 plan.name, plan.epoch, result.applied_batches,
                 len(plan.batches), result.skipped_batches,
                 result.committed))
    if record is not None:
        out.line("committed epoch {} digest {}".format(
            record.epoch, record.digest[:12]))
    return 0 if result.committed else 1


def cmd_trace(args) -> int:
    """Run a traced workload; write the Chrome trace and priced spans.

    Uploads a corpus, builds one index, runs the selected workload
    queries, then writes a Perfetto/``chrome://tracing``-loadable
    trace-event JSON file and a per-span priced cost breakdown.  Two
    runs with the same flags produce byte-identical files.
    """
    from repro.telemetry import chrome_trace_json, priced_breakdown

    corpus = _corpus(args)
    warehouse = Warehouse(deployment=_deployment(args))
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index(args.strategy)
    names = _parse_query_names(args.queries) if args.queries \
        else list(WORKLOAD_ORDER)
    queries = [workload_query(name) for name in names]
    report = warehouse.run_workload(queries, index)

    hub = warehouse.telemetry
    metadata = {"backend": args.backend, "documents": args.documents,
                "queries": ",".join(names), "seed": args.seed,
                "strategy": args.strategy}
    trace_path = args.out
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(hub.tracer, metadata=metadata))
    costs_path = args.costs_out or os.path.splitext(trace_path)[0] \
        + ".costs.json"
    breakdown = priced_breakdown(hub.tracer, warehouse.cloud.meter,
                                 warehouse.cloud.price_book,
                                 metadata=metadata)
    with open(costs_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(breakdown, indent=2, sort_keys=True) + "\n")

    out.line("trace: {} spans -> {}".format(len(hub.tracer), trace_path))
    out.line("costs: {} priced spans -> {}".format(
        len(breakdown["spans"]), costs_path))
    out.line("workload: {} queries in {:.1f}s simulated, cost {}".format(
        len(report.executions), report.makespan_s,
        format_money(report.cost.total if report.cost else 0.0)))
    rows = [[execution.name, "{:.3f}s".format(execution.response_s),
             execution.span_id,
             execution.downgrade or "-",
             format_money(execution.cost.total if execution.cost else 0.0)]
            for execution in report.executions]
    out.table(["query", "response", "span", "downgrade", "cost"], rows)
    if args.tree:
        from repro.telemetry import render_tree
        from repro.telemetry.costing import span_inclusive_costs
        costs = span_inclusive_costs(hub.tracer, warehouse.cloud.meter,
                                     warehouse.cloud.price_book)
        out.blank()
        out.line(render_tree(hub.tracer, costs=costs))
    return 0


def cmd_workload(args) -> int:
    """Run the 10-query workload K times; show per-run billed reads.

    The amortisation view of the store layer: with ``--cache-bytes``
    set, runs 2..K serve repeated index look-ups from the epoch-aware
    cache, so billed DynamoDB gets (and the priced cost) drop after the
    first run.  With the cache off every run bills identically.
    """
    corpus = _corpus(args)
    warehouse = Warehouse(deployment=_deployment(args))
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index(args.strategy)
    names = _parse_query_names(args.queries) if args.queries \
        else list(WORKLOAD_ORDER)
    queries = [workload_query(name) for name in names]
    book = warehouse.cloud.price_book
    meter = warehouse.cloud.meter
    rows = []
    for run in range(1, args.runs + 1):
        tag = "workload:run{}".format(run)
        report = warehouse.run_workload(queries, index, tag=tag)
        billed_gets = meter.request_count("dynamodb", "get", tag=tag)
        cache_hits = sum(e.store_cache_hits for e in report.executions)
        cost = phase_cost(meter, book, tag)
        rows.append([run, billed_gets, cache_hits,
                     "{:.3f}s".format(report.makespan_s),
                     format_money(cost.total)])
    out.table(["run", "billed gets", "cache hits", "makespan", "cost"],
              rows)
    if warehouse.index_cache is not None:
        stats = warehouse.index_cache.stats()
        out.line("cache: {:.0f} entries, {:.0f}/{:.0f} bytes, "
                 "hit ratio {:.1%} ({:.0f} hits / {:.0f} misses)".format(
                     stats["entries"], stats["bytes"], stats["max_bytes"],
                     stats["hit_ratio"], stats["hits"], stats["misses"]))
    if args.monitor:
        out.blank()
        out.line(resource_report(warehouse).render())
    return 0


def cmd_serve(args) -> int:
    """Serve an open workload on a (optionally autoscaled) query fleet.

    Generates a seeded arrival schedule (``--arrival`` process at
    ``--rate`` qps, ``--queries`` arrivals), builds one index, then
    serves the stream: with ``--autoscale`` the fleet grows and shrinks
    between ``--min-workers`` and ``--max-workers`` on queue depth/age;
    without it the fixed ``--workers`` fleet serves everything.
    ``--max-queue-depth`` enables admission control (shedding), and
    ``--degrade-depth`` adds the degraded band below it.
    ``--spot-fraction`` serves part of the fleet on spot capacity
    (``--interruption-rate`` makes the market actually reclaim it) and
    ``--failover [AFTER:DURATION]`` stands up a replicated secondary
    region, optionally blacking out the primary mid-run.
    ``--tenants alpha:4,beta:1:2`` serves named tenants over the one
    deployment — weighted fair-share dispatch (``--scheduler``),
    per-tenant quotas and per-tenant bills in the report.  Prints the
    serving report; ``--report-out`` also writes its deterministic JSON
    form.  Exit status 0 iff the span-attributed request dollars tie
    out exactly against the cost estimator (and, with ``--tenants``,
    the per-tenant bills sum exactly back to the totals).
    """
    from repro.serving import AdmissionPolicy, AutoscalePolicy

    deployment = _deployment(args)
    if args.autoscale:
        deployment["autoscale"] = AutoscalePolicy(
            min_workers=args.min_workers, max_workers=args.max_workers,
            drain=not args.no_drain)
    if args.max_queue_depth:
        deployment["admission"] = AdmissionPolicy(
            max_queue_depth=args.max_queue_depth,
            degrade_queue_depth=args.degrade_depth or None)
    if args.tenants:
        from repro.tenancy import TenancyConfig, parse_tenant_spec
        deployment["tenancy"] = TenancyConfig(
            tenants=tuple(parse_tenant_spec(part)
                          for part in args.tenants.split(",")),
            scheduler=args.scheduler,
            p95_bound_s=args.p95_bound or None)
    _apply_resilience(args, deployment)
    warehouse = Warehouse.deploy(deployment)
    warehouse.upload_corpus(_corpus(args))
    index = warehouse.build_index(args.strategy)

    mix = tuple(_parse_query_names(args.mix)) if args.mix else None
    traffic = {"arrival": args.arrival, "rate_qps": args.rate,
               "queries": args.queries, "seed": args.seed}
    if mix:
        traffic["mix"] = mix
    report = warehouse.serve(traffic, index)
    out.line(report.render())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), indent=2,
                                    sort_keys=True) + "\n")
        out.line("report: {}".format(args.report_out))
    return 0 if report.cost_tied_out and report.tenants_tied_out else 1


def _increments(args) -> List["Corpus"]:  # noqa: F821
    """Seeded growth increments with URIs disjoint from the base corpus."""
    increments = []
    for batch in range(1, args.increments + 1):
        increment = generate_corpus(ScaleProfile(
            documents=args.increment_documents,
            document_bytes=args.document_kb * 1024,
            seed=args.seed + 7000 + batch))
        prefix = "inc{}-".format(batch)
        increment.data = {prefix + uri: data
                          for uri, data in increment.data.items()}
        for document in increment.documents:
            document.uri = prefix + document.uri
        increment.kinds = {prefix + uri: kind
                           for uri, kind in increment.kinds.items()}
        increments.append(increment)
    return increments


def cmd_ingest(args) -> int:
    """Live ingestion: publish delta epochs, compact, stay queryable.

    Builds a checkpointed index, attaches the live-mutation handle and
    absorbs ``--increments`` growth increments of
    ``--increment-documents`` new documents each as delta epochs.
    With ``--rate`` > 0 the increments are published by a background
    mutation feed *while* a seeded open workload (``--arrival`` at
    ``--rate`` qps, ``--queries`` arrivals) is served, the compaction
    ticker folding the chain mid-traffic per the ``--max-deltas`` /
    ``--max-delta-documents`` policy; with ``--rate 0`` the increments
    publish inline, each priced individually, compacting whenever the
    policy trips.  Prints one line per delta and compaction plus the
    serving report; ``--report-out`` writes the deterministic JSON
    ingestion report.  Exit status 0 iff every priced mutation's and
    the serving run's span dollars tie out exactly against the cost
    estimator.
    """
    from repro.mutations import (CompactionPolicy, compaction_ticker,
                                 mutation_feed)

    _require_checkpoint_backend(args)
    deployment = _deployment(args)
    _apply_resilience(args, deployment)
    warehouse = Warehouse.deploy(deployment)
    warehouse.upload_corpus(_corpus(args))
    _, record = warehouse.build_index_checkpointed(args.strategy)
    live = warehouse.live_index(record.name)
    out.line("built {} epoch {}; live handle attached".format(
        record.name, record.epoch))

    increments = _increments(args)
    policy = CompactionPolicy(max_deltas=args.max_deltas,
                              max_documents=args.max_delta_documents)
    serving = None
    if args.rate > 0:
        background = [mutation_feed(
            live, [("add", increment) for increment in increments],
            interval_s=args.mutation_interval)]
        if not args.no_compact:
            background.append(compaction_ticker(
                live, policy, interval_s=args.compaction_interval,
                max_ticks=args.compaction_ticks))
        traffic = {"arrival": args.arrival, "rate_qps": args.rate,
                   "queries": args.queries, "seed": args.seed}
        serving = warehouse.serve(traffic, live, background=background)
    else:
        for increment in increments:
            warehouse.add_documents(live, increment)
            if not args.no_compact and policy.should_compact(live.deltas):
                warehouse.compact_index(live, retire=args.retire)

    def verdict(tied) -> str:
        if tied is None:
            return "-"
        return "exact" if tied else "MISMATCH"

    rows = [[delta.seq, delta.kind, delta.documents,
             len(delta.tombstones), delta.puts,
             format_money(delta.span_cost.total)
             if delta.span_cost else "-",
             verdict(delta.cost_tied_out)]
            for delta in live.history]
    out.table(["seq", "kind", "docs", "tombstones", "puts", "cost",
               "tie-out"], rows)
    for compaction in live.compactions:
        out.line("compaction e{} -> e{}: committed={} units {}/{} "
                 "(skipped {}) cost {} tie-out {}".format(
                     compaction.from_epoch, compaction.to_epoch,
                     compaction.committed, compaction.units_done,
                     compaction.units_total, compaction.units_skipped,
                     format_money(compaction.span_cost.total)
                     if compaction.span_cost else "-",
                     verdict(compaction.cost_tied_out)))
    if serving is not None:
        out.line(serving.render())
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(live.ingestion_report().to_json())
        out.line("report: {}".format(args.report_out))

    tied = [delta.cost_tied_out for delta in live.history]
    tied.extend(compaction.cost_tied_out
                for compaction in live.compactions if compaction.committed)
    if serving is not None:
        tied.append(serving.cost_tied_out)
    return 0 if all(t is not False for t in tied) else 1


def cmd_xquery(args) -> int:
    """Translate a tree-pattern query into XQuery (§4)."""
    query = parse_query(args.query)
    out.line(to_xquery(query))
    return 0


def cmd_prices(args) -> int:
    """Print a provider's price book (Table 3 layout)."""
    out.line(render_table3(price_book(args.provider)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro-warehouse",
        description="Cloud XML warehouse demo (EDBT 2013 reproduction).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(p, documents=150):
        p.add_argument("--documents", type=int, default=documents)
        p.add_argument("--document-kb", type=int, default=8)
        p.add_argument("--seed", type=int, default=20130318)

    def add_build_args(p, instances=4):
        # The normalized build surface: identical spelling, defaults
        # and semantics on every subcommand that builds an index.
        p.add_argument("--strategy", type=_strategy_name, default="LUP",
                       help="indexing strategy, case-insensitive ({})"
                       .format(", ".join(ALL_STRATEGY_NAMES)))
        p.add_argument("--backend", default="dynamodb",
                       choices=BACKEND_CHOICES, help="index store backend")
        p.add_argument("--instances", type=int, default=instances,
                       help="loader instances")

    def add_deployment_args(p, instances=4, workers=1):
        # The one deployment surface: every flag maps onto a
        # DeploymentConfig field (see _deployment), with identical
        # spelling, defaults and semantics on serve, workload, demo,
        # trace and scrub.
        add_build_args(p, instances=instances)
        p.add_argument("--batch-size", type=int, default=8,
                       help="documents per loader write batch")
        p.add_argument("--workers", type=int, default=workers,
                       help="query-processor instances")
        p.add_argument("--instance-type", default="xl",
                       choices=("l", "xl"), help="query processor type")
        p.add_argument("--shards", type=int, default=1,
                       help="physical tables per logical index table")
        p.add_argument("--cache-bytes", type=int, default=0,
                       help="byte budget of the epoch-aware read cache "
                            "(0 disables)")
        p.add_argument("--spot-fraction", type=float, default=0.0,
                       help="target share of the query fleet bought "
                            "from the spot market (0 disables)")
        p.add_argument("--interruption-rate", type=float, default=0.0,
                       help="seeded spot interruptions per VM-hour "
                            "(0 disables)")
        p.add_argument("--failover", nargs="?", const="", default=None,
                       metavar="AFTER:DURATION",
                       help="serve with a replicated secondary region; "
                            "the optional AFTER:DURATION value also "
                            "blacks out the primary that many seconds "
                            "into serving, for that long")

    p_generate = sub.add_parser("generate", help=cmd_generate.__doc__)
    add_corpus_args(p_generate)
    p_generate.add_argument("--out", help="directory for the XML files")
    p_generate.set_defaults(func=cmd_generate)

    p_demo = sub.add_parser("demo", help=cmd_demo.__doc__)
    add_corpus_args(p_demo)
    add_deployment_args(p_demo)
    p_demo.add_argument("--queries",
                        help="comma-separated q1..q10 (default: all)")
    p_demo.add_argument("--monitor", action="store_true",
                        help="print the resource report afterwards")
    p_demo.set_defaults(func=cmd_demo)

    p_advise = sub.add_parser("advise", help=cmd_advise.__doc__)
    add_corpus_args(p_advise)
    p_advise.add_argument("--runs", type=int, default=10,
                          help="expected workload runs")
    p_advise.set_defaults(func=cmd_advise)

    p_chaos = sub.add_parser("chaos", help=cmd_chaos.__doc__)
    add_corpus_args(p_chaos, documents=16)
    add_build_args(p_chaos, instances=2)
    p_chaos.add_argument("--scenario", default="loader-crash",
                         choices=SCENARIO_NAMES)
    p_chaos.add_argument("--error-rate", type=float, default=0.08,
                         help="per-request fault probability")
    p_chaos.add_argument("--crash-after", type=float, default=0.5,
                         help="seconds into the build the loader dies")
    p_chaos.set_defaults(func=cmd_chaos)

    p_scrub = sub.add_parser("scrub", help=cmd_scrub.__doc__)
    add_corpus_args(p_scrub)
    add_deployment_args(p_scrub)
    p_scrub.add_argument("--damage",
                         help="comma-separated damage kinds to inject "
                              "before scrubbing (corrupt-item, "
                              "drop-table-partition)")
    p_scrub.add_argument("--damage-count", type=int, default=1,
                         help="items/partitions damaged per kind")
    p_scrub.add_argument("--no-repair", action="store_true",
                         help="detect only; leave damage in place")
    p_scrub.set_defaults(func=cmd_scrub)

    p_resume = sub.add_parser("resume", help=cmd_resume.__doc__)
    add_corpus_args(p_resume)
    add_deployment_args(p_resume)
    p_resume.add_argument("--interrupt-after", type=float, default=4.0,
                          help="seconds into the build the fleet crashes")
    p_resume.set_defaults(func=cmd_resume)

    p_trace = sub.add_parser("trace", help=cmd_trace.__doc__)
    add_corpus_args(p_trace, documents=60)
    add_deployment_args(p_trace, workers=2)
    p_trace.add_argument("--queries",
                         help="comma-separated q1..q10 (default: all)")
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace-event JSON output path")
    p_trace.add_argument("--costs-out",
                         help="priced span breakdown path "
                              "(default: <out>.costs.json)")
    p_trace.add_argument("--tree", action="store_true",
                         help="print the span tree with per-span costs")
    p_trace.set_defaults(func=cmd_trace)

    p_workload = sub.add_parser("workload", help=cmd_workload.__doc__)
    add_corpus_args(p_workload, documents=60)
    add_deployment_args(p_workload)
    p_workload.add_argument("--queries",
                            help="comma-separated q1..q10 (default: all)")
    p_workload.add_argument("--runs", type=int, default=3,
                            help="workload repetitions (K)")
    p_workload.add_argument("--monitor", action="store_true",
                            help="print the resource report afterwards")
    p_workload.set_defaults(func=cmd_workload)

    p_serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    add_corpus_args(p_serve, documents=60)
    add_deployment_args(p_serve, instances=4, workers=1)
    p_serve.add_argument("--arrival", default="poisson",
                         choices=("poisson", "burst", "diurnal"),
                         help="arrival process of the open workload")
    p_serve.add_argument("--rate", type=float, default=2.0,
                         help="base arrival rate (queries/second)")
    p_serve.add_argument("--queries", type=int, default=500,
                         help="total arrivals offered")
    p_serve.add_argument("--mix",
                         help="comma-separated q1..q10 drawn uniformly "
                              "per arrival (default: all ten)")
    p_serve.add_argument("--autoscale", action="store_true",
                         help="serve on an autoscaled fleet instead of "
                              "the fixed --workers fleet")
    p_serve.add_argument("--min-workers", type=int, default=1,
                         help="autoscaler fleet floor")
    p_serve.add_argument("--max-workers", type=int, default=4,
                         help="autoscaler fleet ceiling")
    p_serve.add_argument("--no-drain", action="store_true",
                         help="allow scale-in to reclaim a busy worker "
                              "(its lease lapses and SQS redelivers)")
    p_serve.add_argument("--max-queue-depth", type=int, default=0,
                         help="shed arrivals above this visible queue "
                              "depth (0 disables admission control)")
    p_serve.add_argument("--degrade-depth", type=int, default=0,
                         help="admit degraded above this depth "
                              "(0 disables the degraded band)")
    p_serve.add_argument("--tenants",
                         help="comma-separated NAME[:WEIGHT[:QPS[:BUDGET]]] "
                              "tenant specs; enables multi-tenant serving "
                              "with per-tenant bills")
    p_serve.add_argument("--scheduler", default="fair",
                         choices=("fair", "fifo"),
                         help="multi-tenant dispatch order (needs --tenants)")
    p_serve.add_argument("--p95-bound", type=float, default=0.0,
                         help="per-tenant p95 bound recorded in the "
                              "tenancy config (0 leaves it unset)")
    p_serve.add_argument("--report-out",
                         help="write the JSON serving report here")
    p_serve.set_defaults(func=cmd_serve)

    p_ingest = sub.add_parser("ingest", help=cmd_ingest.__doc__)
    add_corpus_args(p_ingest, documents=24)
    add_deployment_args(p_ingest, instances=2, workers=1)
    p_ingest.add_argument("--increments", type=int, default=3,
                          help="growth increments to publish as deltas")
    p_ingest.add_argument("--increment-documents", type=int, default=8,
                          help="new documents per increment")
    p_ingest.add_argument("--mutation-interval", type=float, default=2.0,
                          help="simulated seconds between publications")
    p_ingest.add_argument("--arrival", default="poisson",
                          choices=("poisson", "burst", "diurnal"),
                          help="arrival process of the open workload")
    p_ingest.add_argument("--rate", type=float, default=2.0,
                          help="arrival rate while ingesting "
                               "(0 publishes inline, without traffic)")
    p_ingest.add_argument("--queries", type=int, default=40,
                          help="total arrivals offered while ingesting")
    p_ingest.add_argument("--max-deltas", type=int, default=3,
                          help="compact once the chain holds this many "
                               "deltas")
    p_ingest.add_argument("--max-delta-documents", type=int, default=0,
                          help="also compact past this many chained "
                               "documents (0 disables)")
    p_ingest.add_argument("--compaction-interval", type=float, default=5.0,
                          help="simulated seconds between policy checks")
    p_ingest.add_argument("--compaction-ticks", type=int, default=12,
                          help="policy checks before the ticker stops")
    p_ingest.add_argument("--no-compact", action="store_true",
                          help="leave the delta chain unfolded")
    p_ingest.add_argument("--retire", action="store_true",
                          help="delete superseded tables after inline "
                               "compaction (only with --rate 0)")
    p_ingest.add_argument("--report-out",
                          help="write the JSON ingestion report here")
    p_ingest.set_defaults(func=cmd_ingest)

    p_xquery = sub.add_parser("xquery", help=cmd_xquery.__doc__)
    p_xquery.add_argument("query", help="tree-pattern query text")
    p_xquery.set_defaults(func=cmd_xquery)

    p_prices = sub.add_parser("prices", help=cmd_prices.__doc__)
    p_prices.add_argument("--provider", default="aws",
                          choices=("aws", "google", "azure"))
    p_prices.set_defaults(func=cmd_prices)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``repro-warehouse`` console script)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
