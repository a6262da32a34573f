"""Figure 13 — "Index cost amortization for a single large (L) EC2
instance": cumulated benefit over workload runs minus index build cost.

The paper finds every strategy recovers its build cost quickly — after
4 runs for LU, 8 for LUP and LUI, 16 for 2LUPI.  Claims checked:

- every strategy has positive per-run benefit and amortises within a
  bounded number of runs;
- the cheapest index to build (LU) amortises first, the most expensive
  (2LUPI) last;
- the series is linear in the number of runs (by construction) and
  crosses zero exactly at the break-even run count.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.costs.amortization import AmortizationStudy, amortization_series
from repro.costs.estimator import build_phase_cost, workload_cost
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "index build cost recovered after 4 (LU), 8 (LUP, LUI) and 16 "
    "(2LUPI) workload runs")
OUR_CLAIM = (
    "positive benefit per run for every strategy; bounded break-even; "
    "LU amortises first, 2LUPI last")

MAX_RUNS = 60


def _study(ctx, strategy_name: str) -> AmortizationStudy:
    book = ctx.warehouse.cloud.price_book
    dataset = ctx.dataset_metrics
    build = build_phase_cost(ctx.warehouse, ctx.index(strategy_name), book)
    no_index = workload_cost(
        ctx.workload_report(None, "l").executions, dataset, book)
    indexed = workload_cost(
        ctx.workload_report(strategy_name, "l").executions, dataset, book)
    return AmortizationStudy(
        strategy_name=strategy_name,
        build_cost=build.total,
        workload_cost_no_index=no_index,
        workload_cost_indexed=indexed)


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    rows = []
    series = {}
    for name in ALL_STRATEGY_NAMES:
        study = _study(ctx, name)
        rows.append([
            name,
            round(study.build_cost, 6),
            round(study.workload_cost_no_index, 6),
            round(study.workload_cost_indexed, 6),
            round(study.benefit_per_run, 6),
            study.break_even_runs,
        ])
        series[name] = {runs: round(value, 6) for runs, value
                        in amortization_series(study, MAX_RUNS)
                        if runs % 10 == 0}
    return ExperimentResult(
        experiment_id="Figure 13",
        title="Index cost amortization (single L instance)",
        headers=["strategy", "build $", "workload $ (no idx)",
                 "workload $ (idx)", "benefit/run $", "break-even runs"],
        rows=rows, series=series,
        notes=["paper: LU amortises in 4 runs, LUP and LUI in 8, "
               "2LUPI in 16"])


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    by_name = result.row_map()
    breakeven = {name: by_name[name][5] for name in ALL_STRATEGY_NAMES}
    for name in ALL_STRATEGY_NAMES:
        benefit = by_name[name][4]
        assert benefit > 0, \
            "{}: the index must save money on every workload run".format(name)
        assert breakeven[name] <= MAX_RUNS, \
            "{}: should amortise within {} runs (got {})".format(
                name, MAX_RUNS, breakeven[name])
    # Cheapest build amortises first; the double index last.
    assert breakeven["LU"] <= breakeven["LUP"], \
        "LU should amortise no later than LUP"
    assert breakeven["LU"] <= breakeven["LUI"]
    assert breakeven["2LUPI"] >= max(breakeven["LUP"], breakeven["LUI"]), \
        "2LUPI (most expensive build) should amortise last"
