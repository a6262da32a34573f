#!/usr/bin/env python3
"""Real docs/s and memory per document of one 2LUPI build plus q1-q10.

    python3 scripts/scale_probe.py 4000
    python3 scripts/scale_probe.py 400 --document-bytes 16384 --seed 20130318

Generates the corpus, then times its upload plus one 2LUPI build (real
docs/s), then runs q1..q10 one at a time on one worker, stopping at
the first query that raises.  Prints one JSON line: the timings, the
queries that completed (and the error that stopped the rest), the
process's RSS after imports, its peak RSS after the build and after
the queries, and MB per document = (peak after the build - RSS after
imports) / documents.  Peak RSS never falls within a process, so run
one size per process.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro  # noqa: E402
from repro.config import ScaleProfile  # noqa: E402
from repro.query.workload import WORKLOAD_ORDER, workload_query  # noqa: E402


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("documents", type=int)
    parser.add_argument("--document-bytes", type=int, default=16 * 1024)
    parser.add_argument("--seed", type=int, default=ScaleProfile.seed)
    args = parser.parse_args(argv[1:])
    base_mb = peak_mb()
    corpus = repro.generate_corpus(ScaleProfile(
        documents=args.documents, document_bytes=args.document_bytes,
        seed=args.seed))
    warehouse = repro.Warehouse()
    started = time.perf_counter()
    warehouse.upload_corpus(corpus)
    index = warehouse.build_index("2LUPI")
    build_s = time.perf_counter() - started
    build_peak_mb = peak_mb()
    completed, error = [], None
    started = time.perf_counter()
    for name in WORKLOAD_ORDER:
        try:
            warehouse.run_query(workload_query(name), index)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            error = "{}: {}: {}".format(name, type(exc).__name__,
                                        str(exc)[:80])
            break
        completed.append(name)
    print(json.dumps({
        "documents": args.documents,
        "document_bytes": args.document_bytes,
        "build_s": round(build_s, 2),
        "docs_per_s": round(args.documents / build_s, 1),
        "queries_s": round(time.perf_counter() - started, 2),
        "queries_completed": len(completed), "error": error,
        "rss_after_imports_mb": round(base_mb, 1),
        "peak_rss_after_build_mb": round(build_peak_mb, 1),
        "peak_rss_mb": round(peak_mb(), 1),
        "mb_per_document": round(
            (build_peak_mb - base_mb) / args.documents, 4),
    }))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
