#!/usr/bin/env python
"""Incremental warehousing: documents keep arriving, indexes keep up.

The architecture indexes each document as it arrives (Figure 1, steps
1-6) — no rebuilds, no static partitioning (§2's contrast with
HadoopXML).  This example warehouses a base corpus into a *committed*
epoch, attaches a live-mutation handle, then streams in three
increments through ``Warehouse.add_documents`` — each one a small
immutable delta epoch published with one conditional manifest flip.
After each increment it re-runs a query through the same handle and
asserts read-your-writes: documents published by the delta are visible
to the very next query, with no rebuild and no worker restart.  The
per-increment cost comes straight off the delta report's priced
telemetry span, tied out exactly against the cost estimator.
"""

from repro import Warehouse, generate_corpus, workload_query
from repro.bench.reporting import format_money, format_table
from repro.config import ScaleProfile
from repro.warehouse.monitoring import resource_report


def make_increment(batch: int, documents: int = 40):
    corpus = generate_corpus(ScaleProfile(documents=documents,
                                          seed=9000 + batch))
    corpus.data = {"batch{}-{}".format(batch, uri): data
                   for uri, data in corpus.data.items()}
    for document in corpus.documents:
        document.uri = "batch{}-{}".format(batch, document.uri)
    corpus.kinds = {"batch{}-{}".format(batch, uri): kind
                    for uri, kind in corpus.kinds.items()}
    return corpus


def main() -> None:
    warehouse = Warehouse()
    warehouse.upload_corpus(generate_corpus(ScaleProfile(documents=80)))
    _, record = warehouse.build_index_checkpointed("LUI", loaders=4)
    live = warehouse.live_index(record.name)
    query = workload_query("q6")

    rows = []
    execution = warehouse.run_query(query, live)
    rows.append(["base", len(warehouse.corpus),
                 execution.docs_from_index, execution.result_rows, "-"])

    for batch in range(1, 4):
        increment = make_increment(batch)
        before = len(warehouse.corpus)
        report = warehouse.add_documents(live, increment, loaders=2)
        # Read-your-writes: the delta flip is visible to the very next
        # query through the same live handle — no rebuild, no restart.
        assert len(warehouse.corpus) == before + len(increment.documents)
        assert report.seq == batch
        assert report.cost_tied_out
        execution = warehouse.run_query(query, live)
        rows.append(["+batch{}".format(batch), len(warehouse.corpus),
                     execution.docs_from_index, execution.result_rows,
                     format_money(report.span_cost.total)])

    print("q6 ({}) as the warehouse grows:".format(query))
    print(format_table(
        ["state", "documents", "docs from index", "result rows",
         "increment cost"], rows))

    print("\nlive chain: {} deltas over epoch {}".format(
        len(live.deltas), live.record.epoch))
    compaction = warehouse.compact_index(live)
    execution = warehouse.run_query(query, live)
    print("compacted into epoch {} ({} units, {})".format(
        live.record.epoch, compaction.units_done,
        format_money(compaction.span_cost.total)))
    print("q6 after compaction: {} docs from index, {} rows".format(
        execution.docs_from_index, execution.result_rows))

    print("\nDynamoDB pressure across the whole session:")
    write = resource_report(warehouse).store("dynamodb-write")
    print("  {} write requests, mean capacity wait {:.3f}s{}".format(
        write.requests, write.mean_queue_delay_s,
        "  [saturated]" if write.saturated else ""))


if __name__ == "__main__":
    main()
