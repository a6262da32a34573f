"""One module per paper artefact, listed once in :data:`EXPERIMENTS`.

Each module exposes:

- ``run(ctx) -> ExperimentResult`` — regenerate the table/figure from a
  shared :class:`~repro.bench.datasets.ExperimentContext`;
- ``check(result, ctx)`` — assert the paper's qualitative claims on the
  regenerated data (orderings, ratios, crossovers), raising
  ``AssertionError`` with a readable message when a claim fails;
- either ``PAPER_CLAIM`` and ``OUR_CLAIM`` — what the paper reports and
  what ``check`` asserts, the two lines ``EXPERIMENTS.md`` prints above
  the regenerated artefact — or ``ARTEFACT``, the ``BENCH_*.json`` file
  ``pytest benchmarks/`` writes the result to beside the repository
  root.

``scripts/generate_experiments_md.py`` reports every module with claims
and ``benchmarks/test_experiments.py`` runs every module, both in
:data:`EXPERIMENTS` order: adding an experiment is writing its module
and listing it there.
"""

from repro.bench.experiments import (figure7_indexing_scaling,
                                     figure8_index_sizes,
                                     figure9_response_times,
                                     figure10_parallelism,
                                     figure11_query_costs,
                                     figure12_cost_details,
                                     figure13_amortization,
                                     figure14_selectivity_crossover,
                                     figure15_sensitivity, live_ingestion,
                                     serving_elasticity, spot_resilience,
                                     store_amortization, table3_pricing,
                                     table4_indexing_times,
                                     table5_query_details,
                                     table6_indexing_costs,
                                     table7_simpledb_indexing,
                                     table8_simpledb_querying, tenancy)

#: Every experiment, in EXPERIMENTS.md order, then the service benches.
EXPERIMENTS = (
    table3_pricing, table4_indexing_times, figure7_indexing_scaling,
    figure8_index_sizes, table5_query_details, figure9_response_times,
    figure10_parallelism, table6_indexing_costs, figure11_query_costs,
    figure12_cost_details, figure13_amortization, table7_simpledb_indexing,
    table8_simpledb_querying, figure14_selectivity_crossover,
    figure15_sensitivity,
    live_ingestion, serving_elasticity, spot_resilience, store_amortization,
    tenancy,
)
