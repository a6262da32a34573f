#!/usr/bin/env python
"""Quickstart: warehouse a corpus, build one index, run one query.

Run with::

    python examples/quickstart.py

The whole stack is simulated and deterministic — no AWS account needed.
"""

from repro import Warehouse, generate_corpus, workload_query
from repro.config import ScaleProfile
from repro.costs.estimator import query_cost
from repro.costs.metrics import DatasetMetrics


def main() -> None:
    # 1. Generate a small XMark-style corpus (the paper's §8.1 recipe).
    corpus = generate_corpus(ScaleProfile(documents=150,
                                          document_bytes=8 * 1024))
    print("corpus: {} documents, {:.2f} MB".format(
        len(corpus), corpus.total_mb))

    # 2. Deploy a warehouse on a simulated AWS and upload the corpus.
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)

    # 3. Build the LUP index on 4 large loader instances (Figure 1).
    index = warehouse.build_index("LUP", loaders=4)
    report = index.report
    print("LUP index built in {:.1f} simulated seconds "
          "({} put operations, {:.2f} MB stored)".format(
              report.total_s, report.puts, report.stored_bytes / 2 ** 20))

    # 4. Run a query through the full pipeline, with and without index.
    query = workload_query("q5")
    print("\nquery {}: {}".format(query.name, query))
    indexed = warehouse.run_query(query, index)
    scanned = warehouse.run_query(query, None)

    dataset = DatasetMetrics.of_corpus(corpus)
    book = warehouse.cloud.price_book
    print("  with LUP : {:.3f}s, {:3d} documents fetched, ${:.6f}".format(
        indexed.response_s, indexed.documents_fetched,
        query_cost(indexed, dataset, book)))
    print("  no index : {:.3f}s, {:3d} documents fetched, ${:.6f}".format(
        scanned.response_s, scanned.documents_fetched,
        query_cost(scanned, dataset, book)))
    print("  speedup  : {:.1f}x   cost saving: {:.0%}".format(
        scanned.response_s / indexed.response_s,
        1 - query_cost(indexed, dataset, book)
        / query_cost(scanned, dataset, book)))
    assert indexed.result_rows == scanned.result_rows


if __name__ == "__main__":
    main()
