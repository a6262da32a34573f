"""What a run leaves behind that only the cyclic collector could free.

``Environment.run`` and ``run_process`` pause CPython's cyclic collector
while they step, so a reference cycle a run creates lives until the
first pass after some run returns.  What keeps that safe is the
invariant counted here: with the collector off around an action,
whatever ``gc.collect()`` finds afterwards is what only a pass could
have freed — a closure that recursed through its own cell, an exception
cycled with the process it failed — and a finished ``Process`` still
alive is one that something kept a table of.  Counts only, nothing here
depends on wall-clock time.
"""

import gc

from repro.sim.process import Process

#: What a run may leave unreachable, whatever its length (measured: 0).
MAX_UNREACHABLE = 20


def census(action, env=None):
    """Run ``action`` with the collector off; return (objects it left
    that only a collector pass could free, finished processes of ``env``
    still held, processes of ``env`` it left running)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        action()
        processes = [obj for obj in gc.get_objects()
                     if isinstance(obj, Process) and obj.env is env]
        finished = sum(not proc.is_alive for proc in processes)
        running = len(processes) - finished
        del processes
        return gc.collect(), finished, running
    finally:
        if enabled:
            gc.enable()
