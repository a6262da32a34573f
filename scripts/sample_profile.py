#!/usr/bin/env python3
"""SIGPROF sampling profile of one end-to-end benchmark workload.

    PYTHONHASHSEED=0 python3 scripts/sample_profile.py serve-tenants [SEED]

Runs the workload's ``setup`` (unsampled) and its timed ``main`` under
``signal.setitimer(ITIMER_PROF)``, ROUNDS times on fresh state (the
kernel delivers at best one sample per 4 ms tick), and prints self-time
shares by the innermost ``repro`` function and by the first enclosing
phase.  A sampler costs the same whatever is running; cProfile's
per-call hook triples this section's wall time and overstates its many
tiny calls, so shares read from it are not the shares ``ops_per_s`` is
made of.
"""

import collections
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
PHASES = ("evaluate_pattern", "_twig_lookup", "lookup_pattern",
          "_build_report", "record",  # ``record`` is Meter.record
          # The write side (``ingest-live``, ``build-2lupi``): the
          # compaction fold, the epoch commit, one query end to end
          # (the serve-side names above are nested in it and win) and
          # one document's fetch + parse + extract.
          "_fold_unit", "commit", "_process", "_extract")
INTERVAL_S = 0.001
ROUNDS = 5


def main(argv):
    import run as bench
    from workloads import make_workload
    seed = int(argv[2]) if len(argv) > 2 else bench.DEFAULT_SEED
    workload = make_workload(argv[1], seed)
    workload.prepare()
    by_function, by_phase = collections.Counter(), collections.Counter()

    def sample(_signum, frame):
        while frame and "/repro/" not in frame.f_code.co_filename:
            frame = frame.f_back
        if frame is None:
            by_function["(outside repro)"] += 1
            by_phase["(outside repro)"] += 1
            return
        code = frame.f_code
        package = code.co_filename.split("/repro/")[1].split("/")[0]
        by_function["{}:{}".format(package, code.co_name)] += 1
        while frame and frame.f_code.co_name not in PHASES:
            frame = frame.f_back
        by_phase[frame.f_code.co_name if frame else package] += 1

    signal.signal(signal.SIGPROF, sample)
    elapsed = 0.0
    for _ in range(ROUNDS):
        state = workload.setup()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            workload.main(state)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        elapsed += time.perf_counter() - started
    total = sum(by_phase.values())
    print("{} seed {}: main {:.2f} s per round, {} samples".format(
        argv[1], seed, elapsed / ROUNDS, total))
    for title, counts, top in (("phase", by_phase, 20),
                               ("function", by_function, 30)):
        print("-- self time by {}".format(title))
        for name, count in counts.most_common(top):
            print("{:6.1%}  {}".format(count / total, name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
