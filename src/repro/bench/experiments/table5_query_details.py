"""Table 5 — "Query processing details": per query, the number of
document IDs retrieved from each strategy's index, the number of
documents actually containing results, and the result size.

Paper claims checked:

- retrieval counts are ordered ``LU >= LUP >= LUI = 2LUPI >= w.results``
  for every query (no look-up misses a relevant document: soundness);
- LUI and 2LUPI retrieve exactly the same URIs (§5.4: "2LUPI returns
  the same URIs as LUI");
- LUI and 2LUPI are *exact* (no false positives) on tree-pattern
  queries without range predicates (q1-q3, q5-q7 here; the paper's q4
  happened to be exact too, but a range predicate only guarantees
  over-approximation, §5.5);
- the imprecision of LU/LUP varies and is large on some queries.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.workload import WORKLOAD_ORDER

PAPER_CLAIM = (
    "per-query look-up precision: LU >= LUP >= LUI = 2LUPI >= docs with "
    "results; LUI/2LUPI exact for tree patterns (their q1-q7); LU/LUP "
    "imprecision up to ~200%")
OUR_CLAIM = (
    "same orderings; LUI exact on our q1-q3 and q5-q7 (q4 carries a "
    "range predicate, which §5.5 look-ups ignore, so only >= holds); "
    "strict LU>LUP and LUP>LUI gaps exist")

#: Single-pattern queries whose look-up must be exact under LUI/2LUPI.
EXACT_FOR_LUI = ("q1", "q2", "q3", "q5", "q6", "q7")


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    rows = []
    for query_name in WORKLOAD_ORDER:
        counts = {name: ctx.execution(name, query_name).docs_from_index
                  for name in ALL_STRATEGY_NAMES}
        reference = ctx.execution("LUP", query_name)
        rows.append([
            query_name,
            counts["LU"], counts["LUP"], counts["LUI"], counts["2LUPI"],
            reference.docs_with_results,
            round(reference.result_bytes / 1024.0, 2),
        ])
    return ExperimentResult(
        experiment_id="Table 5",
        title="Query processing details ({} documents)".format(
            len(ctx.corpus)),
        headers=["query", "LU", "LUP", "LUI", "2LUPI",
                 "docs w. results", "result KB"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    strict_gap_lu_lup = 0
    strict_gap_lup_lui = 0
    for row in result.rows:
        query_name, lu, lup, lui, two_lupi, with_results, _ = row
        assert lu >= lup >= lui >= with_results, \
            "{}: precision ordering broke: {}".format(query_name, row)
        assert lui == two_lupi, \
            "{}: 2LUPI must return the same URIs as LUI".format(query_name)
        if query_name in EXACT_FOR_LUI:
            assert lui == with_results, \
                "{}: LUI look-up must be exact for tree patterns " \
                "({} retrieved vs {} with results)".format(
                    query_name, lui, with_results)
        strict_gap_lu_lup += int(lu > lup)
        strict_gap_lup_lui += int(lup > lui)
    # The strategies must actually separate somewhere (the corpus's
    # §8.1 heterogeneity is doing its job).
    assert strict_gap_lu_lup >= 2, \
        "LU should be strictly less precise than LUP on several queries"
    assert strict_gap_lup_lui >= 1, \
        "LUP should be strictly less precise than LUI somewhere"
    # Range query q4: every strategy over-approximates (look-ups ignore
    # the range predicate, §5.5).
    q4 = result.row_map()["q4"]
    assert q4[3] >= q4[5], "q4: LUI must not under-approximate"
