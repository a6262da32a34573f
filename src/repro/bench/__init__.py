"""Benchmark support: shared experiment context, drivers and reporting.

Each experiment module under :mod:`repro.bench.experiments` regenerates
one table or figure of the paper — it runs the required warehouse
phases, assembles the same rows/series the paper reports, renders them
as text, and checks the paper's qualitative claims.
:data:`EXPERIMENTS` lists the modules once; ``benchmarks/`` and
``scripts/generate_experiments_md.py`` iterate over it.

The heavy work (corpus generation, index builds, workload runs) is done
once through :class:`~repro.bench.datasets.ExperimentContext` and
shared across experiments.
"""

from repro.bench.datasets import ExperimentContext, get_context
from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import (ExperimentResult, format_duration,
                                   format_money, format_table)

__all__ = [
    "EXPERIMENTS",
    "ExperimentContext",
    "ExperimentResult",
    "format_duration",
    "format_money",
    "format_table",
    "get_context",
]
