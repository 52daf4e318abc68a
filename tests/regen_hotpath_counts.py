"""Regenerate ``tests/data/hotpath_counts.json``.

Run only after an *intentional* change of the event population (a
protocol fix, the identity-changing stage of ROADMAP item 2) — never to
make an optimization "pass".  Usage, from the repository root::

    PYTHONPATH=src python tests/regen_hotpath_counts.py

What is counted lives in ``tests/test_hotpath_counts.py`` so the
regenerator and the checker can never drift apart.
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.dirname(_HERE)]     # the test; perfbench

from test_hotpath_counts import COUNTS_PATH, WORKLOADS, hotpath_counts  # noqa: E402


def main() -> int:
    counts = {wl: hotpath_counts(wl) for wl in WORKLOADS}
    with open(COUNTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for wl, row in counts.items():
        print(f"{wl}: {row['events']} events, {row['deliveries']} deliveries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
