"""Live ingestion: delta-merge maintenance vs. per-increment rebuilds.

The mutation subsystem's economic claim: absorbing corpus growth
through delta epochs (``Warehouse.add_documents``) bills *strictly
fewer* DynamoDB writes than rebuilding the index from scratch after
each increment, because a delta writes only the increment's entries
while a rebuild re-writes the whole (growing) corpus every time.
Both arms absorb the identical increments, so the write counts are
directly comparable.

The serving arms then measure what the maintenance machinery costs
the *readers*: two identical seeded serving runs take the same
mutation feed in the background, one with the online compactor
ticking alongside, one without.  Claims checked:

- delta-merge ingestion bills strictly fewer DynamoDB ``put``
  requests than the per-increment full rebuilds, at equal growth;
- every delta publication's span dollars tie out exactly against the
  cost estimator;
- both serving runs complete every offered query with the serving
  report's dollar tie-out exact, and the compacting run actually
  commits at least one compaction mid-traffic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.reporting import ExperimentResult
from repro.config import ScaleProfile
from repro.mutations import CompactionPolicy, compaction_ticker, mutation_feed
from repro.warehouse import Warehouse
from repro.xmark import Corpus, generate_corpus

ARTEFACT = "BENCH_ingest.json"

#: Number of corpus increments each arm absorbs.
INCREMENTS = 3

#: Strategy under maintenance (the paper's serving default).
STRATEGY = "LUI"

#: Queries offered per serving run.
QUERIES = 30

#: Mean offered rate (queries per simulated second).
RATE_QPS = 2.0

#: Arrival-process seed: both serving runs see identical traffic.
SEED = 20130318

#: Loader fleet for base builds, rebuilds and delta publications.
BUILD_CONFIG = {"loaders": 2, "batch_size": 4}


def _increment(ctx, batch: int) -> Corpus:
    """One growth increment with URIs disjoint from every other corpus."""
    documents = max(4, ctx.scale.documents // 9)
    corpus = generate_corpus(ScaleProfile(
        documents=documents, seed=9000 + 31 * batch))
    prefix = "inc{}-".format(batch)
    corpus.data = {prefix + uri: data for uri, data in corpus.data.items()}
    for document in corpus.documents:
        document.uri = prefix + document.uri
    corpus.kinds = {prefix + uri: kind
                    for uri, kind in corpus.kinds.items()}
    return corpus


def _merged(base: Corpus, increments: List[Corpus]) -> Corpus:
    """The base corpus with every increment appended (for rebuilds)."""
    merged = Corpus(documents=list(base.documents), data=dict(base.data),
                    kinds=dict(base.kinds))
    for increment in increments:
        merged.documents.extend(increment.documents)
        merged.data.update(increment.data)
        merged.kinds.update(increment.kinds)
    return merged


def _deploy(ctx) -> Warehouse:
    """A fresh warehouse with the shared base corpus uploaded."""
    warehouse = Warehouse(deployment=dict(BUILD_CONFIG))
    warehouse.upload_corpus(ctx.corpus)
    return warehouse


def _delta_arm(ctx, increments: List[Corpus]):
    """Absorb the increments as delta epochs; return (puts, reports)."""
    warehouse = _deploy(ctx)
    _, record = warehouse.build_index_checkpointed(STRATEGY)
    live = warehouse.live_index(record.name)
    meter = warehouse.cloud.meter
    baseline = meter.request_count("dynamodb", "put")
    reports = [warehouse.add_documents(live, increment)
               for increment in increments]
    puts = meter.request_count("dynamodb", "put") - baseline
    return puts, reports


def _rebuild_arm(ctx, increments: List[Corpus]) -> int:
    """Absorb the increments as full rebuilds; return billed puts."""
    warehouse = _deploy(ctx)
    warehouse.build_index_checkpointed(STRATEGY)
    meter = warehouse.cloud.meter
    baseline = meter.request_count("dynamodb", "put")
    for i in range(1, len(increments) + 1):
        warehouse.upload_corpus(_merged(ctx.corpus, increments[:i]),
                                tag="rebuild-upload:{}".format(i))
        warehouse.build_index_checkpointed(
            STRATEGY, tag="rebuild:{}".format(i))
    return meter.request_count("dynamodb", "put") - baseline


def _serve_arm(ctx, increments: List[Corpus], compact: bool):
    """One seeded serving run with the mutation feed in the background."""
    warehouse = _deploy(ctx)
    _, record = warehouse.build_index_checkpointed(STRATEGY)
    live = warehouse.live_index(record.name)
    background = [mutation_feed(live,
                                [("add", increment)
                                 for increment in increments],
                                interval_s=2.0)]
    if compact:
        background.append(compaction_ticker(
            live, CompactionPolicy(max_deltas=2),
            interval_s=4.0, max_ticks=24))
    traffic = {"arrival": "poisson", "rate_qps": RATE_QPS,
               "queries": QUERIES, "seed": SEED}
    report = warehouse.serve(traffic, live, background=background)
    return report, live


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    increments = [_increment(ctx, batch)
                  for batch in range(1, INCREMENTS + 1)]
    grown = sum(len(increment) for increment in increments)

    delta_puts, delta_reports = _delta_arm(ctx, increments)
    rebuild_puts = _rebuild_arm(ctx, increments)
    steady, steady_live = _serve_arm(ctx, increments, compact=False)
    compacting, compacting_live = _serve_arm(ctx, increments, compact=True)

    rows: List[List] = [
        ["delta-merge", grown, delta_puts, len(delta_reports), 0,
         "-", "-", "-",
         "exact" if all(r.cost_tied_out for r in delta_reports)
         else "MISMATCH"],
        ["full-rebuild", grown, rebuild_puts, INCREMENTS, 0,
         "-", "-", "-", "n/a"],
        ["serve-steady", grown, "-", len(steady_live.history),
         sum(1 for c in steady_live.compactions if c.committed),
         steady.completed,
         round(steady.p50_s, 4), round(steady.p95_s, 4),
         "exact" if steady.cost_tied_out else "MISMATCH"],
        ["serve-compacting", grown, "-", len(compacting_live.history),
         sum(1 for c in compacting_live.compactions if c.committed),
         compacting.completed,
         round(compacting.p50_s, 4), round(compacting.p95_s, 4),
         "exact" if compacting.cost_tied_out else "MISMATCH"],
    ]
    series = {
        "maintenance_puts": {"delta-merge": float(delta_puts),
                             "full-rebuild": float(rebuild_puts)},
        "p95_s": {"serve-steady": steady.p95_s,
                  "serve-compacting": compacting.p95_s},
    }
    return ExperimentResult(
        experiment_id="BENCH ingest",
        title="Delta-merge live ingestion vs. per-increment rebuilds "
              "({} increments, {} documents of growth)".format(
                  INCREMENTS, grown),
        headers=["scenario", "docs grown", "dynamodb puts", "delta flips",
                 "compactions", "completed", "p50 s", "p95 s", "tie-out"],
        rows=rows, series=series,
        notes=["both maintenance arms absorb identical increments; the "
               "serving arms take the same seeded traffic with the "
               "mutation feed running, with and without the online "
               "compactor"])


def check(result: ExperimentResult, ctx: Optional[object] = None) -> None:
    """Assert the live-ingestion claims on the regenerated artefact."""
    by_scenario = result.row_map()
    assert set(by_scenario) == {"delta-merge", "full-rebuild",
                                "serve-steady", "serve-compacting"}
    delta = by_scenario["delta-merge"]
    rebuild = by_scenario["full-rebuild"]
    # The headline: delta maintenance bills strictly fewer writes than
    # rebuilding after every increment, at identical corpus growth.
    assert delta[1] == rebuild[1], "arms must absorb equal growth"
    assert delta[2] < rebuild[2], \
        "delta-merge must bill strictly fewer DynamoDB puts " \
        "({} vs {})".format(delta[2], rebuild[2])
    # Every delta publication priced exactly.
    assert delta[8] == "exact", "delta publication dollars must tie out"
    # Both serving runs stayed healthy and priced under mutations.
    for label in ("serve-steady", "serve-compacting"):
        row = by_scenario[label]
        assert row[3] == INCREMENTS, \
            "{}: every queued mutation must flip".format(label)
        assert row[5] == QUERIES, \
            "{}: every offered query must complete".format(label)
        assert row[8] == "exact", \
            "{}: serving dollars must tie out exactly".format(label)
    assert by_scenario["serve-compacting"][4] >= 1, \
        "the compacting run must commit at least one compaction"
    assert by_scenario["serve-steady"][4] == 0
