"""Ablation — §8.1's document batching in the loader.

"We batched the documents in order to minimize the number of calls
needed to load the index into DynamoDB."  Building the same index with
batch size 1 issues more batchPut API requests, packs fewer entries per
item, and takes longer.
"""

from conftest import report

from repro.bench.reporting import ExperimentResult
from repro.warehouse import Warehouse


def _build(corpus, batch_size: int):
    warehouse = Warehouse()
    warehouse.upload_corpus(corpus)
    built = warehouse.build_index("LU", loaders=4, batch_size=batch_size)
    return built.report


def test_ablation_batching(ctx, benchmark):
    corpus = ctx.corpus.prefix(0.25)
    batched = _build(corpus, batch_size=8)
    unbatched = _build(corpus, batch_size=1)

    result = ExperimentResult(
        experiment_id="Ablation A4",
        title="Loader batching: batch=8 vs batch=1 (LU, 4 L instances)",
        headers=["variant", "total_s", "batchPut requests", "items"],
        rows=[["batch=8", round(batched.total_s, 1), batched.batches,
               batched.items],
              ["batch=1", round(unbatched.total_s, 1), unbatched.batches,
               unbatched.items]])
    report(result)

    assert batched.documents == unbatched.documents
    assert batched.batches < unbatched.batches, \
        "batching must reduce the number of batchPut API requests"
    assert batched.items <= unbatched.items, \
        "batching packs entries into fewer items"
    assert batched.total_s < unbatched.total_s, \
        "batching must speed up indexing"

    benchmark(lambda: sum(1 for _ in corpus.documents))
