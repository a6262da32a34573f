"""repro — reproduction of *Web Data Indexing in the Cloud: Efficiency
and Cost Reductions* (Camacho-Rodríguez, Colazzo, Manolescu; EDBT 2013).

The package builds the paper's full system over a deterministic
simulated AWS:

>>> from repro import Warehouse, generate_corpus, workload
>>> from repro.config import ScaleProfile
>>> wh = Warehouse()
>>> wh.upload_corpus(generate_corpus(ScaleProfile(documents=50)))
>>> index = wh.build_index("LUP", loaders=4)
>>> execution = wh.run_query(workload()[0], index)
>>> execution.docs_from_index >= execution.docs_with_results
True

Layers (see DESIGN.md for the full map):

- :mod:`repro.sim` — discrete-event simulation kernel;
- :mod:`repro.cloud` — simulated S3 / DynamoDB / SimpleDB / EC2 / SQS;
- :mod:`repro.xmldb` — XML model, (pre, post, depth) IDs, codecs;
- :mod:`repro.xmark` — the §8.1 corpus generator;
- :mod:`repro.query` — tree patterns with value joins (§4);
- :mod:`repro.engine` — structural/holistic twig joins and evaluation;
- :mod:`repro.indexing` — the LU / LUP / LUI / 2LUPI strategies (§5-§6);
- :mod:`repro.warehouse` — the Figure 1 architecture (§3);
- :mod:`repro.costs` — the §7 monetary cost model;
- :mod:`repro.advisor` — the §9 future-work index advisor.
"""

from repro.advisor import IndexAdvisor
from repro.cloud import CloudProvider
from repro.config import (BENCH_SCALE, LARGE_SCALE, TEST_SCALE,
                          PerformanceProfile, ScaleProfile)
from repro.costs import (AWS_SINGAPORE, AmortizationStudy, PriceBook,
                         amortization_series, index_build_cost,
                         monthly_storage_cost, query_cost,
                         query_cost_indexed, query_cost_no_index)
from repro.indexing import ALL_STRATEGY_NAMES, strategy
from repro.query import parse_pattern, parse_query
from repro.query.workload import figure2_queries, workload, workload_query
from repro.warehouse import Warehouse
from repro.xmark import Corpus, generate_corpus

__version__ = "1.0.0"

__all__ = [
    "ALL_STRATEGY_NAMES",
    "AWS_SINGAPORE",
    "AmortizationStudy",
    "BENCH_SCALE",
    "CloudProvider",
    "Corpus",
    "IndexAdvisor",
    "LARGE_SCALE",
    "PerformanceProfile",
    "PriceBook",
    "ScaleProfile",
    "TEST_SCALE",
    "Warehouse",
    "__version__",
    "amortization_series",
    "figure2_queries",
    "generate_corpus",
    "index_build_cost",
    "monthly_storage_cost",
    "parse_pattern",
    "parse_query",
    "query_cost",
    "query_cost_indexed",
    "query_cost_no_index",
    "strategy",
    "workload",
    "workload_query",
]
