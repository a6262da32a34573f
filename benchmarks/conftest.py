"""Shared fixtures for the benchmark suite.

The experiment context (corpus, warehouse, indexes, workload runs) is
process-wide: the first bench that needs an artefact builds it, later
benches reuse it.  ``pytest benchmarks/ --benchmark-only`` therefore
regenerates every experiment of ``repro.bench.EXPERIMENTS`` (through
``test_experiments.py``) and every ablation in one pass, printing each
artefact as it is produced.
"""

from __future__ import annotations

import pytest

from repro.bench import get_context


@pytest.fixture(scope="session")
def ctx():
    """The shared experiment context at bench scale."""
    return get_context()


def report(result) -> None:
    """Print a regenerated artefact (shown with pytest -s or on failure)."""
    print()
    print(result.render())
