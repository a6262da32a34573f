"""API-surface gate: the snapshot must match the importable package."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.telemetry

ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_api_surface.py")
SNAPSHOT = os.path.join(ROOT, "scripts", "api_surface.json")


def run_checker(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True, env=env,
                          cwd=ROOT)


def test_public_api_matches_declared_snapshot():
    proc = run_checker()
    assert proc.returncode == 0, \
        "undeclared API break:\n" + proc.stdout + proc.stderr


def test_snapshot_covers_the_telemetry_package():
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    assert "repro.telemetry" in surface
    assert "TelemetryHub" in surface["repro.telemetry"]
    assert "chrome_trace_json" in surface["repro.telemetry"]
    assert surface["repro.cli"]["main"]["kind"] == "function"


def test_removed_name_is_reported_as_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    surface["repro.telemetry"]["definitely_not_real"] = {
        "kind": "function", "parameters": ["x"]}
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 1
    assert "repro.telemetry.definitely_not_real removed" in proc.stdout


def test_signature_change_is_reported_as_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    entry = surface["repro.telemetry"]["counter_dict"]
    entry["parameters"] = ["registry", "name", "gone"]
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 1
    assert "counter_dict parameters changed" in proc.stdout


def test_additions_do_not_break(tmp_path):
    with open(SNAPSHOT, "r", encoding="utf-8") as handle:
        surface = json.load(handle)
    # Dropping a module from the snapshot = the code *adds* it: fine.
    del surface["repro.telemetry"]
    doctored = tmp_path / "surface.json"
    doctored.write_text(json.dumps(surface))
    proc = run_checker("--snapshot", str(doctored))
    assert proc.returncode == 0, proc.stdout + proc.stderr
