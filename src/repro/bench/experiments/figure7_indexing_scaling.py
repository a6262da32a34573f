"""Figure 7 — "Indexing in 8 large (L) EC2 instances": indexing time
versus data size.

The paper indexes growing prefixes of the 40 GB corpus and observes
that "indexing time scales well, linearly in the size of the data for
each strategy".  We index four prefixes (1/4, 1/2, 3/4, 1) of the bench
corpus in *fresh* warehouses (each point is an independent build) and
check per-strategy linearity via the coefficient of determination of a
least-squares fit through the origin.
"""

from __future__ import annotations

from typing import Dict, List

from repro.advisor import BUILD_INSTANCES
from repro.bench.reporting import ExperimentResult
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.warehouse import Warehouse

PAPER_CLAIM = "indexing time scales linearly in data size for every strategy"
OUR_CLAIM = "monotone growth over 4 corpus prefixes, least-squares R^2 > 0.95"

FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def _linear_fit_r2(points: List) -> float:
    """R^2 of the least-squares line through (x, y) points.

    A free intercept is allowed: indexing has a fixed start-up cost
    (queue latencies, first batches), just like the paper's runs.
    """
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    var_x = sum((x - mean_x) ** 2 for x, _ in points)
    slope = cov / var_x if var_x else 0.0
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in points)
    ss_tot = sum((y - mean_y) ** 2 for _, y in points)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    series: Dict[str, Dict[float, float]] = {
        name: {} for name in ALL_STRATEGY_NAMES}
    sizes: Dict[float, float] = {}
    for fraction in FRACTIONS:
        sub_corpus = ctx.corpus.prefix(fraction)
        sizes[fraction] = sub_corpus.total_mb
        warehouse = Warehouse()
        warehouse.upload_corpus(sub_corpus)
        for name in ALL_STRATEGY_NAMES:
            built = warehouse.build_index(name, loaders=BUILD_INSTANCES)
            series[name][round(sub_corpus.total_mb, 2)] = built.report.total_s
    rows = []
    for name in ALL_STRATEGY_NAMES:
        points = [(x, y) for x, y in series[name].items()]
        rows.append([name] + [round(y, 1) for _, y in points]
                    + [round(_linear_fit_r2(points), 4)])
    headers = (["strategy"]
               + ["t@{:.1f}MB".format(sizes[f]) for f in FRACTIONS]
               + ["linear R^2"])
    return ExperimentResult(
        experiment_id="Figure 7",
        title="Indexing time vs documents size (8 L instances)",
        headers=headers, rows=rows, series=series,
        notes=["paper: indexing time scales linearly in data size"])


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    for row in result.rows:
        name, r2 = row[0], row[-1]
        times = row[1:-1]
        # Monotone growth with data size...
        assert all(earlier < later for earlier, later
                   in zip(times, times[1:])), \
            "{}: indexing time not monotone in data size: {}".format(
                name, times)
        # ...and close to linear (through the origin).
        assert r2 > 0.95, \
            "{}: indexing time not linear in data size (R^2={})".format(
                name, r2)
    # Strategy ordering holds at full scale too: LU fastest, 2LUPI slowest.
    full = {row[0]: row[-2] for row in result.rows}
    assert full["LU"] < full["2LUPI"]
