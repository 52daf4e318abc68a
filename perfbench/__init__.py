"""perfbench — the repo's pinned performance benchmark (``BENCHMARK.json``).

Five workloads, noise-floor wall metrics, exact work counters and an
outside-in per-layer budget, all driven through ``repro``'s public
functions.  See ``perfbench/README.md`` for the metric tables and how to
run it; ``python -m perfbench --help`` lists the commands.
"""

from __future__ import annotations

import os
import sys

#: Repository root (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ``repro`` is a src-layout package that is never installed in a bare
# checkout; make ``python -m perfbench`` work from the repository root
# without PYTHONPATH.  In a directory without ``src/`` the first
# ``import repro`` fails and the command exits non-zero, as it must.
_SRC = os.path.join(ROOT, "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)
