"""The boundary table and BENCHMARK.json agree with the code."""

import json
import re
from collections import Counter

import pytest

from e2e_paths import ROOT
import run
from boundaries import BOUNDARIES, LAYERS, MAX_PER_LAYER
from tracer import BoundaryTracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_boundary_table_is_well_formed():
    assert set(BOUNDARIES.values()) <= set(LAYERS)
    assert set(BOUNDARIES.values()) == set(LAYERS)  # every layer traced
    assert max(Counter(BOUNDARIES.values()).values()) <= MAX_PER_LAYER
    for name in BOUNDARIES:
        module, _, qualname = name.partition(":")
        assert module.split(".")[0] == "repro"
        assert not any(part.startswith("_")
                       for part in module.split(".") + qualname.split("."))


def test_every_boundary_resolves_today():
    assert [name for name in BOUNDARIES
            if BoundaryTracer._resolve(name) is None] == []


def test_boundaries_are_public_api_surface():
    path = ROOT / "scripts" / "api_surface.json"
    if not path.is_file():
        pytest.skip("scripts/api_surface.json is not in this checkout")
    surface = json.loads(path.read_text())
    for name in BOUNDARIES:
        module, _, qualname = name.partition(":")
        assert module in surface, name
        parts = qualname.split(".")
        entry = surface[module].get(parts[0])
        assert entry is not None, name
        if len(parts) == 2:
            assert parts[1] in entry.get("methods", {}), name


def _benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("BENCHMARK.json is not in this checkout")
    return json.loads(path.read_text())


def test_benchmark_json_mirrors_the_code():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [
        (name, unit, better, bound)
        for name, (unit, _clock, better, bound) in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        row[:3] for row in run.per_layer_table()]


def test_benchmark_json_meets_the_contract_limits():
    spec = _benchmark_json()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
