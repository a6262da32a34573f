#!/usr/bin/env python3
"""Two-clock end-to-end benchmark of the whole ``repro`` stack.

One workload, as the benchmark driver runs it (the last line of standard
output is the result object described in ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload build-2lupi --seed 20130318 \\
        --seconds 8 --trace 0

All four workloads, each in a fresh subprocess (``--trace 1`` adds the
per-layer attribution and writes ``out/trace-<workload>.json``)::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 1]

``--selfcheck`` runs two full sets back to back and fails unless they
agree; ``--smoke`` shrinks every workload to a fraction of a second;
``--update-golden`` rewrites ``golden.json`` for the seed that ran.
See README.md for every metric's unit, clock, direction and bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20130318
DEFAULT_SECONDS = 8

#: Rounds of one invocation: at least this many, then until the timed
#: sections add up to ``--seconds``.  Every round runs on freshly built
#: state; real-clock metrics are medians over rounds.
MIN_ROUNDS = 3
#: No new round starts after this much wall time (the driver's cap on
#: one invocation is 180 s).
WALL_GUARD_S = 120.0

WORKLOAD_NAMES = ("build-2lupi", "query-closed", "serve-tenants",
                  "ingest-live")

#: name -> (unit, clock, better, bound).  Mirrors BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str, str, float]] = {
    "setup_s": ("s", "real", "lower", 0.25),
    "ops_per_s": ("1/s", "real", "higher", 0.20),
    "query_p50_ms": ("ms", "real", "lower", 0.25),
    "peak_rss_mb": ("MB", "real", "lower", 0.10),
    "sim_build_s": ("s", "sim", "lower", 0.15),
    "sim_build_usd": ("USD", "sim", "lower", 0.15),
    "sim_usd_per_query": ("USD", "sim", "lower", 0.20),
    "index_bytes_per_doc_byte": ("ratio", "sim", "lower", 0.15),
}


def _bootstrap() -> None:
    """Make ``repro`` importable from the checkout this file sits in,
    under a fixed string-hash seed (set/dict order is part of the noise
    otherwise)."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "benchmarks/e2e/run.py: no program to measure: {} is "
            "missing\n".format(source / "repro"))
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], environment)
    for entry in (str(source), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# -- one round ----------------------------------------------------------------

def run_round(workload: Any, tracer: Optional[Any] = None,
              boundaries: Optional[Dict[str, str]] = None,
              ) -> Dict[str, Any]:
    """setup -> main -> probe -> verify on fresh state, each step timed.

    Every real-clock number that comes out of a round is *net* (the host
    sampler's own kernel time subtracted) and divided by the host factor
    of the step it belongs to: see :mod:`hostspeed`.
    """
    from hostspeed import HostSpeedSampler
    clock = time.perf_counter
    sampler = HostSpeedSampler()
    phases: Dict[str, Any] = {}
    steps: Dict[str, Tuple[float, float, float]] = {}

    def timed(name: str, function: Any, *args: Any) -> Any:
        mark = tracer.totals() if tracer is not None else None
        busy, started = sampler.busy_s, clock()
        value = function(*args)
        ended = clock()
        steps[name] = (started, ended, sampler.busy_s - busy)
        if tracer is not None:
            phases[name] = tracer.since(mark)
        return value

    gc.collect()  # the last round's garbage is not this set-up's cost
    if tracer is not None:
        tracer.install(boundaries)
    sampler.start()
    try:
        state = timed("setup", workload.setup)
        state.sampler_busy_s = lambda: sampler.busy_s
        gc.collect()
        timed("main", workload.main, state)
        timed("probe", workload.probe, state)
    finally:
        sampler.stop()
        if tracer is not None:
            tracer.uninstall()

    factors = {name: sampler.factor(started, ended)
               for name, (started, ended, _busy) in steps.items()}
    real = {name: (ended - started - busy) / factors[name]
            for name, (started, ended, busy) in steps.items()}
    return {
        "traced": tracer is not None,
        "setup_s": real["setup"], "main_s": real["main"],
        "probe_s": real["probe"],
        "latencies_ms": [latency / factors[workload.calls_in]
                         for latency in state.latencies_ms],
        # What a traced span's raw seconds are multiplied by: the timer
        # fires uniformly in time, so every layer pays the same share.
        "span_scale": {name: real[name] / (ended - started)
                       for name, (started, ended, _busy) in steps.items()},
        "wall_s": {name: ended - started
                   for name, (started, ended, _busy) in steps.items()},
        "host_factor": factors,
        "outcome": workload.verify(state),
        "phases": phases,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: Path,
                 update_golden: bool = False) -> Dict[str, Any]:
    """Run one workload's rounds in this process; returns the result."""
    import boundaries as boundary_table
    import workloads
    from repro.serving.report import percentile
    from tracer import BoundaryTracer

    started = time.perf_counter()
    workload = workloads.make_workload(name, seed, smoke=smoke)
    workload.prepare()

    rounds: List[Dict[str, Any]] = []
    tracers: List[Any] = []
    measured = 0.0
    minimum = 2 if trace else (1 if smoke else MIN_ROUNDS)
    while True:
        traced = trace and len(rounds) % 2 == 1
        tracer = BoundaryTracer() if traced else None
        rounds.append(run_round(workload, tracer,
                                boundary_table.BOUNDARIES))
        if tracer is not None:
            tracers.append(tracer)
        measured += (rounds[-1]["wall_s"]["main"]
                     + rounds[-1]["wall_s"]["probe"])
        if len(rounds) >= minimum and (
                smoke or measured >= seconds
                or time.perf_counter() - started > WALL_GUARD_S):
            break

    outcomes = [r["outcome"] for r in rounds]
    failures = [text for o in outcomes for text in o.failures]
    digests = sorted({o.sim_digest for o in outcomes})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if len(digests) > 1:
        # Same seed, same process, different simulated outputs: the
        # determinism contract is broken, so nothing can be trusted.
        failures.append("simulated outputs differ between rounds: "
                        + ", ".join(d[:12] for d in digests))
        failed = attempted
    if any(o.sim != outcomes[0].sim or o.counts != outcomes[0].counts
           for o in outcomes[1:]):
        failures.append("simulated metrics or counts differ between rounds")
        failed = attempted

    # Real-clock numbers are medians over the untraced rounds.
    plain = [r for r in rounds if not r["traced"]]
    latencies = [latency for r in plain for latency in r["latencies_ms"]]
    first = outcomes[0]
    end_to_end = {name: value for name, value in first.sim.items()
                  if name in END_TO_END}
    end_to_end.update({
        "setup_s": median([r["setup_s"] for r in plain]),
        "ops_per_s": median([r["outcome"].ops / r["main_s"]
                              for r in plain]),
        "query_p50_ms": median(latencies),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })

    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) \
        if golden_path.is_file() else {}
    pinned = golden.get(name, {}).get(str(seed))
    digest_changed = int(not smoke and pinned is not None
                         and pinned != first.sim_digest)
    if update_golden and not smoke and len(digests) == 1:
        golden.setdefault(name, {})[str(seed)] = first.sim_digest
        golden_path.write_text(json.dumps(golden, indent=2,
                                          sort_keys=True) + "\n")
        digest_changed = 0

    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke,
        "unit_of_work": workload.unit, "sizes": workload.sizes,
        "rounds": len(rounds),
        "correct": failed == 0 and not failures,
        "attempted": attempted, "failed": failed, "failures": failures[:8],
        "sim_digest": first.sim_digest, "sim_digest_changed": digest_changed,
        "end_to_end": end_to_end,
        "latency_samples": len(latencies),
        "query_p95_ms": percentile(latencies, 95),
        "sim_response_p95_s": first.sim["sim_response_p95_s"],
        "host_factor": median([r["host_factor"]["main"] for r in rounds]),
        "per_round": [{"traced": r["traced"], "wall_s": r["wall_s"],
                       "host_factor": r["host_factor"],
                       "real_s": {"setup": r["setup_s"], "main": r["main_s"],
                                  "probe": r["probe_s"]}}
                      for r in rounds],
    }
    if trace:
        result["per_layer"] = _per_layer(result, rounds, tracers)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_trace(out_dir / "trace-{}.json".format(name), result,
                     rounds, tracers)
    result["wall_s"] = time.perf_counter() - started
    return result


# -- per-layer metrics (traced invocation) -----------------------------------

def _per_layer(result: Dict[str, Any], rounds: List[Dict[str, Any]],
               tracers: List[Any]) -> Dict[str, float]:
    """The traced invocation's metrics (medians over its rounds)."""
    from boundaries import LAYERS
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics: Dict[str, float] = {}

    per_round = {phase: [tracer.by_layer(r["phases"][phase])
                         for r, tracer in zip(traced, tracers)]
                 for phase in ("setup", "main")}

    def layer_median(phase: str, layer: str, field: str,
                     scaled: bool) -> float:
        return median([
            layers.get(layer, {}).get(field, 0.0)
            * (r["span_scale"][phase] if scaled else 1)
            for r, layers in zip(traced, per_round[phase])])

    for layer in LAYERS:
        metrics[layer + ".self_s"] = layer_median(
            "main", layer, "self_s", True)
        metrics[layer + ".calls"] = layer_median(
            "main", layer, "calls", False)
        metrics[layer + ".setup_self_s"] = layer_median(
            "setup", layer, "self_s", True)

    traced_wall = median([r["main_s"] for r in traced])
    plain_wall = median([r["main_s"] for r in plain])
    covered = sum(metrics[layer + ".self_s"] for layer in LAYERS)
    metrics["other.self_s"] = max(0.0, traced_wall - covered)
    metrics["trace.coverage_ratio"] = covered / traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["trace.boundaries_unresolved"] = max(
        len(tracer.unresolved) for tracer in tracers)
    mains = [r["main_s"] for r in plain]
    metrics["bench.round_spread"] = (max(mains) - min(mains)) / median(mains)
    # sim.calls counts Environment.step, i.e. simulated events.
    events = metrics["sim.calls"] = median(
        [sum(calls for name, calls in zip(tracer.names,
                                          r["phases"]["main"][0])
             if name.endswith(":Environment.step"))
         for r, tracer in zip(traced, tracers)])
    metrics["sim.us_per_event"] = plain_wall / events * 1e6
    metrics["bench.query_p95_ms"] = result["query_p95_ms"]
    metrics["bench.sim_response_p95_s"] = result["sim_response_p95_s"]
    metrics["bench.failed_ratio"] = (
        result["failed"] / result["attempted"])
    metrics["bench.sim_digest_changed"] = result["sim_digest_changed"]
    metrics["bench.host_factor"] = result["host_factor"]
    metrics.update(rounds[0]["outcome"].counts)
    return {name: float(metrics.get(name, 0.0))
            for name, _unit, _better, _clock in per_layer_table()}


#: Exact counts read from public objects after the timed steps.
COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("xmldb.bytes_parsed", "bytes"),
    ("indexing.entries", "count"), ("indexing.items_packed", "count"),
    ("indexing.index_gets", "count"), ("indexing.docs_from_index", "count"),
    ("indexing.lookup_precision", "ratio"),
    ("engine.rows_processed", "count"), ("engine.docs_evaluated", "count"),
    ("engine.result_rows", "count"),
    ("store.cache_hits", "count"), ("store.cache_misses", "count"),
    ("store.cache_hit_ratio", "ratio"), ("store.cache_evictions", "count"),
    ("store.cache_invalidations", "count"),
    ("cloud.dynamodb_puts", "count"), ("cloud.dynamodb_gets", "count"),
    ("cloud.dynamodb_bytes_in", "bytes"),
    ("cloud.dynamodb_bytes_out", "bytes"),
    ("cloud.s3_gets", "count"), ("cloud.s3_puts", "count"),
    ("cloud.sqs_requests", "count"),
    ("telemetry.spans", "count"), ("telemetry.meter_records", "count"),
    ("serving.offered", "count"), ("serving.completed", "count"),
    ("serving.shed", "count"), ("serving.degraded", "count"),
    ("serving.redelivered", "count"), ("serving.peak_workers", "count"),
    ("tenancy.bills_exact", "count"),
    ("mutations.deltas", "count"), ("mutations.compactions", "count"),
    ("mutations.delta_puts", "count"),
    ("mutations.compaction_puts", "count"),
    ("consistency.batches_applied", "count"),
)

#: Counts of which more is better (everything else: less).
_HIGHER_IS_BETTER = ("indexing.lookup_precision", "store.cache_hits",
                     "store.cache_hit_ratio", "serving.completed",
                     "tenancy.bills_exact")


def per_layer_table() -> List[Tuple[str, str, str, str]]:
    """(name, unit, better, clock) of every per-layer metric, in print
    order.  Clock ``exact`` marks counts and simulated values, which
    must repeat exactly for a given seed; ``real`` ones are timings."""
    from boundaries import LAYERS
    table: List[Tuple[str, str, str, str]] = []
    for layer in LAYERS:
        table.append((layer + ".self_s", "s", "lower", "real"))
        table.append((layer + ".calls", "count", "lower", "exact"))
        table.append((layer + ".setup_self_s", "s", "lower", "real"))
    table += [
        ("other.self_s", "s", "lower", "real"),
        ("trace.coverage_ratio", "ratio", "higher", "real"),
        ("trace.overhead_ratio", "ratio", "lower", "real"),
        ("trace.boundaries_unresolved", "count", "lower", "exact"),
        ("bench.round_spread", "ratio", "lower", "real"),
        ("bench.host_factor", "ratio", "lower", "real"),
        ("bench.query_p95_ms", "ms", "lower", "real"),
        ("bench.sim_response_p95_s", "s", "lower", "exact"),
        ("bench.failed_ratio", "ratio", "lower", "exact"),
        ("bench.sim_digest_changed", "count", "lower", "exact"),
        ("sim.us_per_event", "us/event", "lower", "real"),
    ]
    table += [(name, unit,
               "higher" if name in _HIGHER_IS_BETTER else "lower", "exact")
              for name, unit in COUNT_METRICS]
    return table


def _write_trace(path: Path, result: Dict[str, Any],
                 rounds: List[Dict[str, Any]], tracers: List[Any]) -> None:
    """Chrome trace of the first traced round + its aggregates."""
    tracer = tracers[0]
    phases = [r for r in rounds if r["traced"]][0]["phases"]
    metadata = {
        "workload": result["workload"], "seed": result["seed"],
        "clock": "real (perf_counter_ns), microseconds",
        "unresolved_boundaries": tracer.unresolved,
        "raw_spans_kept": len(tracer.raw), "requests": tracer.requests,
    }
    for phase, totals in phases.items():
        metadata[phase] = {"layers": tracer.by_layer(totals),
                           "boundaries": tracer.boundary_rows(totals)}
    path.write_text(json.dumps(tracer.chrome_trace(metadata)) + "\n")


# -- output -------------------------------------------------------------------

def _metric_object(result: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    if trace:
        units = {name: unit for name, unit, _, _ in per_layer_table()}
        values = result["per_layer"]
    else:
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        values = result["end_to_end"]
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def print_report(result: Dict[str, Any], trace: bool) -> None:
    """Every metric by name, with its unit and its clock."""
    line = "{:<34} {:>16} {:<9} {}".format
    print("== {} (seed {}, {} rounds, unit of work: {}) ==".format(
        result["workload"], result["seed"], result["rounds"],
        result["unit_of_work"]))
    print(line("metric", "value", "unit", "clock"))
    for name, (unit, clock, _better, _bound) in END_TO_END.items():
        print(line(name, "{:.6g}".format(result["end_to_end"][name]),
                   unit, clock))
    print(line("query_p95_ms", "{:.6g}".format(result["query_p95_ms"]),
               "ms", "real ({} samples)".format(result["latency_samples"])))
    print(line("sim_response_p95_s", "{:.6g}".format(
        result["sim_response_p95_s"]), "s", "sim"))
    print(line("failed_ratio", "{:.6g}".format(
        result["failed"] / result["attempted"]), "ratio",
        "{} of {}".format(result["failed"], result["attempted"])))
    print(line("sim_digest", result["sim_digest"][:16], "sha256",
               "sim" + (" (CHANGED vs golden.json)"
                        if result["sim_digest_changed"] else "")))
    print("rounds, raw wall s (x host factor): " + "; ".join(
        "{}{}".format("traced " if r["traced"] else "", " ".join(
            "{} {:.2f} (x{:.2f})".format(step, r["wall_s"][step],
                                         r["host_factor"][step])
            for step in ("setup", "main", "probe")))
        for r in result["per_round"]))
    if trace:
        timed = sum(value for name, value in result["per_layer"].items()
                    if name.endswith(".self_s")
                    and not name.endswith(".setup_self_s"))
        for name, unit, _better, clock in per_layer_table():
            value = result["per_layer"][name]
            if (name.endswith(".self_s")
                    and not name.endswith(".setup_self_s") and timed):
                clock += "  {:5.1f} % of main".format(
                    100.0 * value / timed)
            print(line(name, "{:.6g}".format(value), unit, clock))
    for text in result["failures"]:
        print("FAILED: " + text)


def _child(arguments: List[str]) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; parse its last line."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + arguments,
        stdout=subprocess.PIPE, universal_newlines=True, check=False)
    lines = completed.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if not lines:
        raise SystemExit("workload subprocess printed nothing: {}".format(
            " ".join(arguments)))
    summary = json.loads(lines[-1])
    summary["exit_code"] = completed.returncode
    return summary


def run_set(args: argparse.Namespace, trace: bool) -> Dict[str, Any]:
    """All four workloads, one fresh subprocess each."""
    results = {}
    for name in WORKLOAD_NAMES:
        arguments = ["--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", "1" if trace else "0",
                     "--out", str(args.out)]
        if args.smoke:
            arguments.append("--smoke")
        if args.update_golden:
            arguments.append("--update-golden")
        results[name] = _child(arguments)
    return results


def selfcheck(args: argparse.Namespace) -> int:
    """Two full sets back to back must agree: real-clock metrics within
    their bound, simulated metrics and counts exactly."""
    sets = [{"end_to_end": run_set(args, trace=False),
             "per_layer": run_set(args, trace=True)} for _ in range(2)]
    problems: List[str] = []
    for name in WORKLOAD_NAMES:
        first, second = (s["end_to_end"][name] for s in sets)
        for s in sets:
            for kind in ("end_to_end", "per_layer"):
                if not s[kind][name]["correct"]:
                    problems.append("{}: a run was not correct".format(name))
        for metric, (_unit, clock, _better, bound) in END_TO_END.items():
            a = first["metrics"][metric]["value"]
            b = second["metrics"][metric]["value"]
            if clock == "sim":
                if a != b:
                    problems.append("{} {}: {!r} != {!r} (must be "
                                    "exact)".format(name, metric, a, b))
            elif abs(a - b) > bound * min(abs(a), abs(b)):
                problems.append("{} {}: {:.6g} vs {:.6g} differ by more "
                                "than {:.0%}".format(name, metric, a, b,
                                                     bound))
        first, second = (s["per_layer"][name]["metrics"] for s in sets)
        for metric, _unit, _better, clock in per_layer_table():
            if (clock == "exact"
                    and first[metric]["value"] != second[metric]["value"]):
                problems.append("{} {}: {!r} != {!r} (must be exact)".format(
                    name, metric, first[metric]["value"],
                    second[metric]["value"]))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "selfcheck.json").write_text(json.dumps(
        {"passed": not problems, "problems": problems, "sets": sets},
        indent=2, sort_keys=True) + "\n")
    for text in problems:
        print("SELFCHECK FAILED: " + text)
    print("selfcheck: {}".format("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="real seconds of timed sections to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced rounds, print the "
                             "per-layer metrics, write the trace file")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round per workload")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        results = run_set(args, trace=bool(args.trace))
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n")
        return max(r["exit_code"] for r in results.values())

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, args.out,
                          update_golden=args.update_golden)
    print_report(result, bool(args.trace))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "result-{}.json".format(args.workload)).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _metric_object(result, bool(args.trace))}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
