"""A simulation process loads only the backend it runs.

asyncio (and with it ssl, socket and selectors) is imported by the live
backend's run, multiprocessing by a parallel sweep or a sharded run,
and hashlib by :func:`repro.sim.rand.derive_seed`, never when a module
loads.  A fresh interpreter is the only place to see what an import
pulls in, so the check runs in a subprocess.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
WATCH = ("asyncio", "ssl", "socket", "selectors", "multiprocessing",
         "hashlib")
def loaded():
    return [name for name in WATCH if name in sys.modules]
import repro.__main__, repro.live, repro.shard, repro.experiments.runner
from repro.__main__ import main
seen = {"imports": loaded()}
assert main(["run", "quickstart", "--duration", "1000", "--check",
             "--quiet"]) == 0
seen["sim"] = loaded()
assert main(["run", "quickstart", "--live", "queue", "--time-scale",
             "0.01", "--duration", "1000", "--quiet"]) == 0
seen["live"] = loaded()
print(json.dumps(seen))
"""


def test_a_sim_run_loads_no_backend_it_does_not_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE], cwd=str(tmp_path),
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["imports"] == []
    # A checked sim run draws random numbers, and numpy.random loads
    # hashlib through ``secrets``; nothing else on the list may appear.
    assert set(seen["sim"]) <= {"hashlib"}
    # Positive control: the live run is what brings asyncio in.
    assert "asyncio" in seen["live"]


def test_no_backend_is_imported_at_module_level():
    pattern = re.compile(r"^(import|from) (asyncio|multiprocessing|hashlib)\b",
                         re.MULTILINE)
    hits = [str(path.relative_to(SRC_DIR))
            for path in sorted(SRC_DIR.rglob("*.py"))
            if pattern.search(path.read_text())]
    assert hits == []
