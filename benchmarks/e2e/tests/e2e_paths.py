"""Where things are, and ``sys.path`` entries for the benchmark's own
modules and the program.  Every test module here imports this first.

(Not a ``conftest.py``: the paper benchmarks one directory up import
names from *their* ``conftest``, and two rootless modules of that name
cannot share a pytest session.)
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for entry in (str(ROOT / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
