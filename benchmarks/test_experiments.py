"""Regenerates every experiment of ``repro.bench.EXPERIMENTS``.

Each experiment runs once on the shared context, has its claims
checked, is printed, and writes its ``ARTEFACT`` (a ``BENCH_*.json``
series) next to the repository root when it names one.
pytest-benchmark times the run once: the real-clock cost of
regenerating the artefact.
"""

import dataclasses
import json
import os

import pytest

from conftest import report

from repro.bench import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("experiment", EXPERIMENTS,
                         ids=lambda module: module.__name__.split(".")[-1])
def test_experiment(experiment, ctx, benchmark):
    result = benchmark.pedantic(experiment.run, args=(ctx,), rounds=1)
    experiment.check(result, ctx)
    report(result)

    artefact = getattr(experiment, "ARTEFACT", None)
    if artefact is not None:
        with open(os.path.join(ROOT, artefact), "w",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(dataclasses.asdict(result), indent=2,
                                    sort_keys=True) + "\n")
