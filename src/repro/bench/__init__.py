"""The scale-rung memory check: exact work counts and peak RSS.

:mod:`repro.bench.ladder` pins the NE/MH scaling ladder (tens of nodes
to 10^6 lazily-declared MHs); :mod:`repro.bench.measure` runs a rung
once, reports the engine's exact counters and the process's peak RSS,
and gates RSS against a baseline; ``python -m repro ladder`` is the
command.  Throughput is ``perfbench``'s job — it borrows ``calibrate``,
``write_report`` and ``peak_rss_bytes`` from here.
"""

from repro.bench.ladder import LADDER, Rung, node_counts, rung_names, rung_spec
from repro.bench.measure import (BENCH_SCHEMA, bench_report, calibrate,
                                 measure_spec, rss_gate, write_report)

__all__ = ["BENCH_SCHEMA", "LADDER", "Rung", "bench_report", "calibrate",
           "measure_spec", "node_counts", "rss_gate", "rung_names",
           "rung_spec", "write_report"]
