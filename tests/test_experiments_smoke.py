"""Smoke tests for the experiment drivers at unit-test scale.

``pytest benchmarks/`` runs every experiment with its full checks at
bench scale; here every experiment of ``repro.bench.EXPERIMENTS`` runs
once on a tiny corpus, so ``pytest tests/`` alone exercises the
experiment code paths.  Mostly the *structure* of each artefact is
asserted — the paper's qualitative claims need bench scale and are
asserted by the benches; the claims that hold at any scale are checked
here too.
"""

import pytest

from repro.bench import EXPERIMENTS, ExperimentResult, experiments
from repro.bench.datasets import ExperimentContext
from repro.config import ScaleProfile
from repro.indexing.registry import ALL_STRATEGY_NAMES
from repro.query.workload import WORKLOAD_ORDER


@pytest.fixture(scope="module")
def tiny_ctx():
    return ExperimentContext(ScaleProfile(documents=36, seed=101))


@pytest.fixture(scope="module")
def tiny_run(tiny_ctx):
    """Each experiment's result on the tiny context, run at most once."""
    results = {}

    def run(experiment):
        if experiment not in results:
            results[experiment] = experiment.run(tiny_ctx)
        return results[experiment]
    return run


@pytest.mark.parametrize("experiment", EXPERIMENTS,
                         ids=lambda module: module.__name__.split(".")[-1])
def test_experiment_runs_and_renders(experiment, tiny_run):
    result = tiny_run(experiment)
    assert isinstance(result, ExperimentResult)
    assert result.rows or result.series
    assert result.render().startswith(
        "== {} — ".format(result.experiment_id))


def test_table3_runs_and_checks(tiny_ctx, tiny_run):
    result = tiny_run(experiments.table3_pricing)
    experiments.table3_pricing.check(result, tiny_ctx)  # scale-independent
    assert len(result.rows) == 10


def test_table4_structure(tiny_run):
    result = tiny_run(experiments.table4_indexing_times)
    assert [row[0] for row in result.rows] == list(ALL_STRATEGY_NAMES)
    for row in result.rows:
        assert row[6] > 0  # total seconds


def test_table5_structure(tiny_run):
    result = tiny_run(experiments.table5_query_details)
    assert [row[0] for row in result.rows] == list(WORKLOAD_ORDER)
    for row in result.rows:
        # Soundness holds at any scale.
        assert row[1] >= row[2] >= row[3] >= row[5]
        assert row[3] == row[4]  # LUI == 2LUPI


def test_figure9_structure(tiny_run):
    result = tiny_run(experiments.figure9_response_times)
    assert len(result.rows) == 10 * 2 * 5  # queries x types x strategies
    for row in result.rows:
        assert row[3] > 0


def test_figure11_and_12_structure(tiny_run):
    result11 = tiny_run(experiments.figure11_query_costs)
    assert all(row[4] > 0 for row in result11.rows)
    result12 = tiny_run(experiments.figure12_cost_details)
    assert [row[0] for row in result12.rows] == \
        ["none"] + list(ALL_STRATEGY_NAMES)
    assert result12.row_map()["none"][7] == 0.0  # no DynamoDB bill


def test_figure13_structure(tiny_run):
    result = tiny_run(experiments.figure13_amortization)
    for row in result.rows:
        assert row[4] > 0  # benefit per run positive even at tiny scale


def test_table6_structure(tiny_run):
    result = tiny_run(experiments.table6_indexing_costs)
    for row in result.rows:
        assert row[9] > 0 and row[10] > 0


def test_figure15_structure(tiny_run):
    result = tiny_run(experiments.figure15_sensitivity)
    assert result.series  # per-query savings present
    assert any("dominant component" in note for note in result.notes)


def test_live_ingestion_runs_and_checks(tiny_ctx, tiny_run):
    # The live-maintenance claims (strictly fewer writes than rebuilds
    # at equal growth, exact dollar tie-outs, compaction committing
    # under traffic) hold at any scale, so the full check runs here.
    result = tiny_run(experiments.live_ingestion)
    experiments.live_ingestion.check(result, tiny_ctx)
    assert len(result.rows) == 4


def test_serving_elasticity_runs_and_checks(tiny_ctx, tiny_run):
    # The elasticity claims (exact tie-out on every fleet, the
    # autoscaler flexing, Pareto vs. every fixed fleet matching its
    # p95) hold at any scale, so the full check runs here.
    experiment = experiments.serving_elasticity
    result = tiny_run(experiment)
    experiment.check(result, tiny_ctx)
    assert len(result.rows) == len(experiment.FIXED_FLEETS) + 1


def test_spot_resilience_runs_and_checks(tiny_ctx, tiny_run):
    # The resilience claims (chaos loses no query and double-bills
    # none, the spot fleet undercutting comparable fixed fleets, the
    # storm resolving every interruption, the outage failing over and
    # back) hold at any scale, so the full check runs here.
    experiment = experiments.spot_resilience
    result = tiny_run(experiment)
    experiment.check(result, tiny_ctx)
    assert len(result.rows) == len(experiment.FIXED_FLEETS) + 3


def test_store_amortization_runs_and_checks(tiny_ctx, tiny_run):
    # The store-layer claims (cold run parity, strictly fewer billed
    # gets on warm runs, span/estimator cost tie-out) hold at any
    # scale, so the full check runs here too.
    result = tiny_run(experiments.store_amortization)
    experiments.store_amortization.check(result, tiny_ctx)
    assert len(result.rows) == 2 * experiments.store_amortization.RUNS
