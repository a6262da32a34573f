"""Figure 14 (extension, not in the paper) — the §8.5 conjecture.

"We believe that cases for which LUI and 2LUPI strategies behave better
are those in which query tree patterns are multi-branched, highly
selective and evaluated over a document set where most of the documents
only match linear paths of the query."

We build such a query for our corpus: a three-branch twig whose
branches individually match many documents (so LU and LUP retrieve
them) but whose *combination* within one entity is rare (so LUI's twig
join excludes almost everything).  The experiment measures, per
strategy, the documents retrieved and the response time, and checks
that LUI/2LUPI retrieve strictly fewer documents — and, when the saved
document transfers outweigh the pricier look-up, answer faster.
"""

from __future__ import annotations

from repro.bench.reporting import ExperimentResult
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.parser import parse_query

PAPER_CLAIM = (
    "(not in the paper — its §8.5 conjecture) LUI/2LUPI should win on "
    "multi-branch, highly selective twigs over corpora matching only "
    "linear paths")
OUR_CLAIM = (
    "on such a query LUI retrieves strictly fewer documents than "
    "LUP/LU, is exact, and spends less on document transfer + "
    "evaluation")

#: Three branches that co-occur under one person only rarely; every
#: branch alone is common across person documents.
CROSSOVER_QUERY = (
    '//person[/name{val}]'
    '[/profile/interest]'
    '[/watches/watch]'
    '[/homepage]'
)


def run(ctx) -> ExperimentResult:
    """Regenerate this artefact from the shared context."""
    query = parse_query(CROSSOVER_QUERY, name="qx")
    rows = []
    for name in ALL_STRATEGY_NAMES:
        execution = ctx.warehouse.run_query(
            query, ctx.index(name), worker_type="xl",
            tag="figure14:{}".format(name))
        rows.append([name, execution.docs_from_index,
                     execution.docs_with_results,
                     round(execution.response_s, 4),
                     round(execution.lookup_get_s
                           + execution.lookup_plan_s, 4),
                     round(execution.fetch_eval_s, 4)])
    return ExperimentResult(
        experiment_id="Figure 14 (ext)",
        title="§8.5 conjecture: multi-branch selective twig "
              "({})".format(CROSSOVER_QUERY),
        headers=["strategy", "docs from index", "docs w. results",
                 "response_s", "lookup_s", "fetch_eval_s"],
        rows=rows)


def check(result: ExperimentResult, ctx) -> None:
    """Assert the paper's qualitative claims on the result."""
    by_name = result.row_map()
    docs = {name: by_name[name][1] for name in ALL_STRATEGY_NAMES}
    with_results = by_name["LUI"][2]
    # The twig join's precision advantage on multi-branch patterns.
    assert docs["LUI"] < docs["LUP"] <= docs["LU"], \
        "multi-branch twig: LUI should retrieve strictly fewer " \
        "documents ({})".format(docs)
    assert docs["LUI"] == with_results, \
        "LUI must be exact on this tree pattern"
    # The conjecture's payoff: fetching+evaluating fewer documents.
    assert by_name["LUI"][5] < by_name["LUP"][5], \
        "LUI should spend less on document transfer + evaluation"
