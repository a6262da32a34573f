#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: run every experiment of
``repro.bench.EXPERIMENTS`` that states claims, record paper-vs-measured
for each table and figure.

Usage::

    python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import io
import sys
import time

from repro.bench import EXPERIMENTS, get_context

HEADER = """\
# EXPERIMENTS — paper vs. reproduction

Regenerated by ``python scripts/generate_experiments_md.py``.
All numbers below are **measured** on the simulated substrate at bench
scale ({documents} documents, {mb:.2f} MB; the paper used 20 000
documents / 40 GB on real AWS).  Absolute values therefore differ by
construction; each section states the paper's claim and the property
our reproduction asserts (the same assertions run in
``pytest benchmarks/``).  Every run is deterministic: re-running this
script reproduces this file bit-for-bit.

"""


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    ctx = get_context()
    out = io.StringIO()
    started = time.time()

    for module in EXPERIMENTS:
        paper_claim = getattr(module, "PAPER_CLAIM", None)
        if paper_claim is None:
            continue
        result = module.run(ctx)
        status = "PASS"
        try:
            module.check(result, ctx)
        except AssertionError as exc:  # pragma: no cover - report only
            status = "FAIL: {}".format(exc)
        out.write("## {} — {}\n\n".format(result.experiment_id,
                                          result.title))
        out.write("**Paper**: {}\n\n".format(paper_claim))
        out.write("**Reproduced claim** ({}): {}\n\n".format(
            status, module.OUR_CLAIM))
        out.write("```\n")
        out.write(result.render())
        out.write("\n```\n\n")
        print("{:<14} {}".format(result.experiment_id, status))

    body = HEADER.format(documents=len(ctx.corpus),
                         mb=ctx.corpus.total_mb) + out.getvalue()
    with open(output_path, "w") as handle:
        handle.write(body)
    print("wrote {} in {:.0f}s".format(output_path, time.time() - started))


if __name__ == "__main__":
    main()
