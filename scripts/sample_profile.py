#!/usr/bin/env python3
"""SIGPROF sampling profile of one end-to-end benchmark workload.

    PYTHONHASHSEED=0 python3 scripts/sample_profile.py serve-tenants [SEED]
    PYTHONHASHSEED=0 python3 scripts/sample_profile.py serve-tenants --garbage
    PYTHONHASHSEED=0 python3 scripts/sample_profile.py ingest-live --rounds 1

Runs the workload's ``setup`` (unsampled) and its timed ``main`` under
``signal.setitimer(ITIMER_PROF)``, ``--rounds`` times (default 5) on
fresh state (the kernel delivers at best one sample per 4 ms tick),
and prints self-time shares by the innermost ``repro`` function and
by the first enclosing phase.  A sampler costs the same whatever is running; cProfile's
per-call hook triples this section's wall time and overstates its many
tiny calls, so shares read from it are not the shares ``ops_per_s`` is
made of.

A cyclic-GC pass runs between two bytecodes, so SIGPROF files its whole
duration under whichever line happened to allocate the object that
tripped the threshold (a pass that frees nothing looks like a slow
``self._handles = []``).  ``gc.callbacks`` times the passes themselves:
the GC block reports, per generation, how many ran inside the timed
section, how long they took, what share of the section that is and how
many objects they freed.  ``Environment.run`` and ``run_process`` pause
the collector while they step, so that block now reads about 0 passes:
only what falls between kernel runs is left (on ``build-2lupi``, one
long run, that is 2 young passes per round and no full one).

That block counts what the collector freed without naming it.
``--garbage`` runs one more round with the collector off and
``gc.DEBUG_SAVEALL`` set, so the ``gc.collect()`` after the timed
section keeps what it finds unreachable in ``gc.garbage``: the report
lists those objects by type, the functions among them by
``__qualname__`` (a closure that recurses through its own cell is what
makes a call's working set cyclic) and the live ``Process`` objects
before and after the section (one that outlives its generator is held
by something).  It exits 1 when the round left any unreachable object:
with the collector paused inside every run, that garbage would pile up
until a pass outside one.
"""

import argparse
import collections
import gc
import signal
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
PHASES = ("evaluate_pattern", "_twig_lookup", "lookup_pattern",
          # What a warm look-up still pays once its outcome is replayed
          # (innermost wins): the cache gets and the copies handed out.
          "read_keys",
          "_build_report", "record",  # ``record`` is Meter.record
          # The write side (``ingest-live``, ``build-2lupi``): the
          # compaction fold and its regroup of the scanned items, the
          # epoch commit and the content digests (an epoch's, a
          # delta's), one query end to end (the serve-side names above
          # are nested in it and win), one document's fetch + extract,
          # the key walk over its parsed bytes inside that (and the
          # query side's model parse), then the packer and the put of
          # its batch (innermost wins, so ``_extract`` is what is left
          # of it without the walk: encoding and sizing the postings).
          "_fold_unit", "_stored_postings", "commit", "items_digest",
          "_process", "_extract", "collect_occurrences", "parse_document",
          "_pack_items", "batch_put")
INTERVAL_S = 0.001
ROUNDS = 5


def live_processes():
    from repro.sim.process import Process
    return sum(isinstance(obj, Process) for obj in gc.get_objects())


def garbage_report(workload):
    """One round with the collector off: what does ``main`` leave that
    only a collector pass can free, and which processes outlive it?"""
    state = workload.setup()
    gc.collect()
    before = live_processes()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload.main(state)
        after = live_processes()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    by_type = collections.Counter(type(obj).__name__ for obj in garbage)
    closures = collections.Counter(
        obj.__qualname__ for obj in garbage
        if isinstance(obj, types.FunctionType))
    print("-- garbage: one round of main with the collector off")
    print("{} unreachable objects; live Process objects {} before, {} "
          "after ({} of them unreachable)".format(
              len(garbage), before, after, by_type["Process"]))
    for title, counts in (("type", by_type), ("function", closures)):
        print("-- unreachable by {}".format(title))
        for name, count in counts.most_common(15):
            print("{:8d}  {}".format(count, name))
    return len(garbage)


def main(argv):
    import run as bench
    from workloads import make_workload
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", nargs="?", type=int,
                        default=bench.DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help="timed rounds on fresh state")
    parser.add_argument("--garbage", action="store_true",
                        help="one more round with the collector off")
    args = parser.parse_args(argv[1:])
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    rounds, seed = args.rounds, args.seed
    workload = make_workload(args.workload, seed)
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

    # Per generation: [passes, seconds, objects collected].
    gc_passes = [[0, 0.0, 0] for _ in range(3)]
    pass_started = 0.0

    def on_gc(phase, info):
        nonlocal pass_started
        if phase == "start":
            pass_started = time.perf_counter()
        else:
            row = gc_passes[info["generation"]]
            row[0] += 1
            row[1] += time.perf_counter() - pass_started
            row[2] += info["collected"]

    signal.signal(signal.SIGPROF, sample)
    elapsed = 0.0
    answers = []  # per round: look-ups replayed / computed and kept
    for _ in range(rounds):
        state = workload.setup()
        gc.callbacks.append(on_gc)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            workload.main(state)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            elapsed += time.perf_counter() - started
            gc.callbacks.remove(on_gc)
        cache = state.warehouse.index_cache
        if cache is not None:
            answers.append("{}/{}".format(cache.answer_hits,
                                          cache.answer_misses))
    total = sum(by_phase.values())
    print("{} seed {}: main {:.2f} s per round, {} samples".format(
        args.workload, seed, elapsed / rounds, total))
    if answers:
        print("-- look-up answers replayed/computed per round: {}".format(
            " ".join(answers)))
    print("-- cyclic GC inside main, per round ({:.1%} of it)".format(
        sum(row[1] for row in gc_passes) / elapsed))
    for generation, (passes, seconds, collected) in enumerate(gc_passes):
        print("{:6.1%}  gen {}: {:.1f} passes, {:.3f} s, {:.0f} objects "
              "freed".format(seconds / elapsed, generation, passes / rounds,
                             seconds / rounds, collected / rounds))
    for title, counts, top in (("phase", by_phase, 20),
                               ("function", by_function, 30)):
        print("-- self time by {}".format(title))
        for name, count in counts.most_common(top):
            print("{:6.1%}  {}".format(count / total, name))
    if args.garbage:
        state = None  # the last round's processes are not this round's
        return 1 if garbage_report(workload) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
