"""Figure 10 — "Impact of using multiple EC2 instances".

The paper submits the whole 10-query workload 16 times in a row
(pipelined) and compares the total running time on 1 versus 8 query
processor instances, for L and XL machines and all four strategies.
Claims checked:

- 8 instances are significantly faster than 1 for every strategy and
  machine type;
- the *relative* speedup is larger for L than for XL instances ("many
  strong instances sending requests in parallel come close to
  saturating DynamoDB's capacity"), at least for the fine-granularity
  strategies that read the most index data.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.bench.reporting import ExperimentResult
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "8 instances clearly beat 1; the gain is larger for l than xl "
    "because strong fleets near-saturate DynamoDB")
OUR_CLAIM = (
    "speedup > 1.5x for every strategy/type; l speedup >= xl speedup "
    "for the index-read-heavy strategies (LUI, 2LUPI)")

REPEATS = 16
FLEETS = (1, 8)
INSTANCE_TYPES = ("l", "xl")


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    makespans: Dict[Tuple[str, str, int], float] = {}
    for itype in INSTANCE_TYPES:
        for strategy_name in ALL_STRATEGY_NAMES:
            index = ctx.index(strategy_name)
            for fleet in FLEETS:
                report = ctx.warehouse.run_workload(
                    ctx.queries, index,
                    workers=fleet, worker_type=itype,
                    repeats=REPEATS, pipeline=True,
                    tag="figure10:{}:{}x{}".format(
                        strategy_name, fleet, itype))
                makespans[(strategy_name, itype, fleet)] = report.makespan_s
    rows = []
    for itype in INSTANCE_TYPES:
        for strategy_name in ALL_STRATEGY_NAMES:
            one = makespans[(strategy_name, itype, 1)]
            eight = makespans[(strategy_name, itype, 8)]
            rows.append([strategy_name, itype, round(one, 1),
                         round(eight, 1), round(one / eight, 2)])
    return ExperimentResult(
        experiment_id="Figure 10",
        title="Workload x{} makespan: 1 vs 8 instances".format(REPEATS),
        headers=["strategy", "type", "1 instance (s)", "8 instances (s)",
                 "speedup"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    speedups: Dict[Tuple[str, str], float] = {
        (row[0], row[1]): row[4] for row in result.rows}
    for (strategy_name, itype), speedup in speedups.items():
        assert speedup > 1.5, \
            "{} {}: 8 instances should clearly beat 1 (speedup {})".format(
                strategy_name, itype, speedup)
    # DynamoDB saturation: the strategies reading the most index data
    # (LUI, 2LUPI) gain relatively more from extra L instances than
    # from extra XL instances.
    for strategy_name in ("LUI", "2LUPI"):
        l_speedup = speedups[(strategy_name, "l")]
        xl_speedup = speedups[(strategy_name, "xl")]
        assert l_speedup >= xl_speedup * 0.95, \
            "{}: L fleet speedup ({}) should be at least the XL fleet " \
            "speedup ({}) — saturation effect".format(
                strategy_name, l_speedup, xl_speedup)
