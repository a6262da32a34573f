"""Figure 8 — index size and monthly storage cost, with full-text
indexing (top) and without (bottom).

Per strategy: the index's user-data size ("index content"), DynamoDB's
own structures ("DynamoDB overhead data"), the original XML size as
reference, and the monthly storage bill (``IDX$m,GB x s(D, I)``).
Paper claims checked: LUP and 2LUPI are the largest indexes (with
keywords, larger than the data); LUI is smaller than LUP ("IDs are more
compact than paths", helped by the compressed binary ID encoding); the
no-keyword variants are "quite smaller"; the DynamoDB overhead is
noticeable — especially without keywords — but grows slower than index
size.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult, format_bytes, format_money
from repro.costs.metrics import IndexMetrics
from repro.costs.model import index_only_storage_cost
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "LUP/2LUPI are the largest indexes (full-text LUP larger than the "
    "data); LUI smaller than LUP; no-keyword variants much smaller; "
    "DynamoDB overhead noticeable, heavier without keywords")
OUR_CLAIM = "all of the above, asserted on measured byte counts"

MB = 1024.0 ** 2


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    book = ctx.warehouse.cloud.price_book
    rows = []
    for include_words in (True, False):
        variant = "full-text" if include_words else "no-keywords"
        for name in ALL_STRATEGY_NAMES:
            report = ctx.index(name, include_words=include_words).report
            monthly = index_only_storage_cost(
                book, IndexMetrics.of_report(report))
            rows.append([
                name, variant,
                format_bytes(report.raw_bytes),
                format_bytes(report.overhead_bytes),
                format_bytes(report.stored_bytes),
                format_money(monthly),
                report.raw_bytes, report.overhead_bytes,
                report.stored_bytes,
            ])
    return ExperimentResult(
        experiment_id="Figure 8",
        title="Index size and storage cost per month "
              "(XML data: {})".format(format_bytes(ctx.corpus.total_bytes)),
        headers=["strategy", "variant", "index content", "overhead",
                 "total stored", "$/month", "raw_b", "ovh_b", "stored_b"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    xml_bytes = ctx.corpus.total_bytes
    raw = {(row[0], row[1]): row[6] for row in result.rows}
    ovh = {(row[0], row[1]): row[7] for row in result.rows}

    for variant in ("full-text", "no-keywords"):
        # "LUP and 2LUPI are the larger indexes."
        assert raw[("LUP", variant)] > raw[("LUI", variant)], \
            "LUI must be smaller than LUP (IDs more compact than paths)"
        assert raw[("2LUPI", variant)] == max(
            raw[(name, variant)] for name in ALL_STRATEGY_NAMES)
        assert raw[("LU", variant)] == min(
            raw[(name, variant)] for name in ALL_STRATEGY_NAMES)
        # 2LUPI materialises both sub-indexes (within 2%: items pack
        # differently when the two sub-indexes share loader batches).
        assert raw[("2LUPI", variant)] >= 0.98 * (
            raw[("LUP", variant)] + raw[("LUI", variant)]), \
            "2LUPI should hold both sub-indexes' data"

    # Full-text LUP index is larger than the XML data itself.
    assert raw[("LUP", "full-text")] > xml_bytes, \
        "with keywords, the LUP index should exceed the data size"
    # The no-keyword indexes are "quite smaller" than full-text ones.
    for name in ALL_STRATEGY_NAMES:
        assert raw[(name, "no-keywords")] < 0.7 * raw[(name, "full-text")], \
            "{}: dropping keywords should shrink the index markedly".format(name)
        # Overhead noticeable but relatively larger without keywords.
        full_ratio = ovh[(name, "full-text")] / raw[(name, "full-text")]
        bare_ratio = ovh[(name, "no-keywords")] / raw[(name, "no-keywords")]
        assert bare_ratio > full_ratio, \
            "{}: overhead should weigh more without keywords".format(name)
