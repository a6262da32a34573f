"""Table 3 — "AWS Singapore costs as of October 2012".

The table is an input of the reproduction, not a measurement; this
experiment renders it and checks the constants against the paper's
printed values (which are hard-coded here a second time, independently
of :mod:`repro.cloud.pricing_catalog`, so a typo in either place fails).
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.costs.pricing import AWS_SINGAPORE

PAPER_CLAIM = "AWS Singapore prices, Sept-Oct 2012 (Table 3)"
OUR_CLAIM = "constants identical to the paper's printed values"

#: The paper's Table 3, transcribed independently.
PAPER_TABLE3 = {
    "ST$m,GB": 0.125,
    "STput$": 0.000011,
    "STget$": 0.0000011,
    "VM$h,l": 0.34,
    "VM$h,xl": 0.68,
    "IDXst$m,GB": 1.14,
    "IDXput$": 0.00000032,
    "IDXget$": 0.000000032,
    "QS$": 0.000001,
    "egress$GB": 0.19,
}


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    book = AWS_SINGAPORE
    values = {
        "ST$m,GB": book.st_month_gb,
        "STput$": book.st_put,
        "STget$": book.st_get,
        "VM$h,l": book.vm_hourly("l"),
        "VM$h,xl": book.vm_hourly("xl"),
        "IDXst$m,GB": book.idx_month_gb,
        "IDXput$": book.idx_put,
        "IDXget$": book.idx_get,
        "QS$": book.qs_request,
        "egress$GB": book.egress_gb,
    }
    rows = [[name, "${:.10g}".format(value), "${:.10g}".format(
        PAPER_TABLE3[name])] for name, value in values.items()]
    return ExperimentResult(
        experiment_id="Table 3",
        title="AWS Singapore prices (Sept-Oct 2012)",
        headers=["component", "ours", "paper"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    for name, ours, paper in result.rows:
        assert ours == paper, \
            "price {} diverges from the paper: {} != {}".format(
                name, ours, paper)
    # Structural relations the cost analysis relies on.
    book = AWS_SINGAPORE
    assert book.idx_month_gb > book.st_month_gb, \
        "index storage must cost more per GB than file storage"
    assert book.vm_hourly("xl") == 2 * book.vm_hourly("l"), \
        "xl is exactly twice the hourly price of l (the Figure 11 cancellation)"
    assert book.st_put > book.st_get, "S3 PUT costs more than GET"
