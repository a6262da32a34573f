"""Figures 9a/9b/9c — per-query response time (L and XL instances) and
its decomposition into DynamoDB get / plan execution / S3 transfer +
evaluation.

Paper claims checked:

- every index speeds up every query versus no-index (9a), with at least
  one query gaining an order of magnitude or more;
- XL beats L on every query for every strategy ("our strategies are
  able to take advantage of more powerful EC2 instances");
- low-granularity strategies (LU, LUP) have systematically shorter
  index look-up + plan times than fine-granularity ones (LUI, 2LUPI);
- the observed response time never exceeds the sum of the decomposed
  components plus small constant overheads (components are measured in
  parallel, so response <= sum holds; the paper phrases it as
  "systematically less than the sum").
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.workload import WORKLOAD_ORDER

PAPER_CLAIM = (
    "all indexes speed up every query by 1-2 orders of magnitude; xl "
    "beats l; LU/LUP look-ups systematically cheaper than LUI/2LUPI")
OUR_CLAIM = (
    "every strategy faster than no-index on every query and machine "
    "type; best speedup >= 10x; xl <= l; coarse look-up cheaper than "
    "fine, summed over the workload")

STRATEGIES = ("none",) + ALL_STRATEGY_NAMES
INSTANCE_TYPES = ("l", "xl")


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    rows = []
    for query_name in WORKLOAD_ORDER:
        for itype in INSTANCE_TYPES:
            for strategy_name in STRATEGIES:
                execution = ctx.execution(
                    None if strategy_name == "none" else strategy_name,
                    query_name, itype)
                rows.append([
                    query_name, itype, strategy_name,
                    round(execution.response_s, 4),
                    round(execution.lookup_get_s, 4),
                    round(execution.lookup_plan_s, 4),
                    round(execution.fetch_eval_s, 4),
                ])
    return ExperimentResult(
        experiment_id="Figure 9",
        title="Response time and decomposition per query/strategy/instance",
        headers=["query", "type", "strategy", "response_s",
                 "dynamodb_get_s", "plan_s", "s3_eval_s"],
        rows=rows)


def _cell(result, query_name, itype, strategy_name):
    for row in result.rows:
        if row[0] == query_name and row[1] == itype and row[2] == strategy_name:
            return row
    raise KeyError((query_name, itype, strategy_name))


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    best_speedup = 0.0
    for query_name in WORKLOAD_ORDER:
        for itype in INSTANCE_TYPES:
            none_response = _cell(result, query_name, itype, "none")[3]
            for strategy_name in ALL_STRATEGY_NAMES:
                row = _cell(result, query_name, itype, strategy_name)
                response = row[3]
                # 9a: every index speeds up every query.
                assert response < none_response, \
                    "{} {} {}: indexed ({}s) not faster than no-index " \
                    "({}s)".format(query_name, itype, strategy_name,
                                   response, none_response)
                best_speedup = max(best_speedup, none_response / response)
                # Sanity: response bounded by components + overheads.
                components = row[4] + row[5] + row[6]
                assert response <= components + 1.0, \
                    "{} {} {}: response exceeds component sum".format(
                        query_name, itype, strategy_name)
    assert best_speedup >= 10, \
        "expected at least one order-of-magnitude speedup, best was " \
        "{:.1f}x".format(best_speedup)

    # XL at least as fast as L wherever real work exists.
    for query_name in WORKLOAD_ORDER:
        for strategy_name in STRATEGIES:
            l_response = _cell(result, query_name, "l", strategy_name)[3]
            xl_response = _cell(result, query_name, "xl", strategy_name)[3]
            assert xl_response <= l_response * 1.05, \
                "{} {}: xl ({}s) slower than l ({}s)".format(
                    query_name, strategy_name, xl_response, l_response)

    # 9b/9c: coarse strategies look up faster than fine ones (summed
    # over the workload — individual queries may tie at zero).
    for itype in INSTANCE_TYPES:
        def lookup_total(strategy_name: str) -> float:
            return sum(_cell(result, q, itype, strategy_name)[4]
                       + _cell(result, q, itype, strategy_name)[5]
                       for q in WORKLOAD_ORDER)
        assert lookup_total("LU") < lookup_total("LUI"), \
            "{}: LU look-up should be cheaper than LUI".format(itype)
        assert lookup_total("LUP") < lookup_total("2LUPI"), \
            "{}: LUP look-up should be cheaper than 2LUPI".format(itype)
