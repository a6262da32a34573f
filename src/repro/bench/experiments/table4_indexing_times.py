"""Table 4 — "Indexing times using 8 large (L) instances".

Paper values (hh:mm): LU 0:24 / 1:33 / 2:11; LUP 0:32 / 3:47 / 4:25;
LUI 0:41 / 2:31 / 3:22; 2LUPI 1:13 / 6:30 / 7:46 — extraction ordered
LU < LUP < LUI < 2LUPI, uploading dominating extraction everywhere, and
totals ordered LU < LUI < LUP < 2LUPI.  Those *relations* are what
``check`` asserts on our (smaller, simulated) run.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult, format_duration
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "Indexing times on 8 L instances: LU 0:24/1:33/2:11, LUP "
    "0:32/3:47/4:25, LUI 0:41/2:31/3:22, 2LUPI 1:13/6:30/7:46 "
    "(extract/upload/total, hh:mm)")
OUR_CLAIM = (
    "extraction ordered LU<LUP<LUI<2LUPI; uploading dominates "
    "extraction everywhere; totals ordered LU<LUI<LUP<2LUPI")


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    rows = []
    for name in ALL_STRATEGY_NAMES:
        report = ctx.index(name).report
        rows.append([
            name,
            format_duration(report.avg_extraction_s),
            format_duration(report.avg_upload_s),
            format_duration(report.total_s),
            round(report.avg_extraction_s, 1),
            round(report.avg_upload_s, 1),
            round(report.total_s, 1),
        ])
    return ExperimentResult(
        experiment_id="Table 4",
        title="Indexing times using {} {} instances".format(
            8, "large (L)"),
        headers=["strategy", "avg extraction", "avg uploading", "total",
                 "extract_s", "upload_s", "total_s"],
        rows=rows,
        notes=["paper (hh:mm): LU 0:24/1:33/2:11, LUP 0:32/3:47/4:25, "
               "LUI 0:41/2:31/3:22, 2LUPI 1:13/6:30/7:46"])


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    by_name = result.row_map()
    extract = {name: by_name[name][4] for name in ALL_STRATEGY_NAMES}
    upload = {name: by_name[name][5] for name in ALL_STRATEGY_NAMES}
    total = {name: by_name[name][6] for name in ALL_STRATEGY_NAMES}

    # "The more and the larger the entries a strategy produces, the
    # longer indexing takes": extraction LU < LUP < LUI < 2LUPI.
    assert extract["LU"] < extract["LUP"] < extract["LUI"] \
        < extract["2LUPI"], "extraction-time ordering broke: {}".format(extract)
    # Uploading dominates extraction for every strategy (DynamoDB is
    # the indexing bottleneck).
    for name in ALL_STRATEGY_NAMES:
        assert upload[name] > extract[name], \
            "{}: uploading ({}) should dominate extraction ({})".format(
                name, upload[name], extract[name])
    # Upload ordering follows index size: LU < LUI < LUP < 2LUPI.
    assert upload["LU"] < upload["LUI"] < upload["LUP"] < upload["2LUPI"], \
        "upload-time ordering broke: {}".format(upload)
    # Total ordering as in the paper: LU < LUI < LUP < 2LUPI.
    assert total["LU"] < total["LUI"] < total["LUP"] < total["2LUPI"], \
        "total-time ordering broke: {}".format(total)
    # 2LUPI builds both sub-indexes: it costs at least as much as the
    # pricier of LUP and LUI alone.
    assert total["2LUPI"] > max(total["LUP"], total["LUI"])
