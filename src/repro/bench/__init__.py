"""The scale-rung memory check: exact work counts and peak RSS.

:mod:`repro.bench.ladder` pins the NE/MH scaling ladder (tens of nodes
to 10^6 lazily-declared MHs); ``python -m repro ladder`` runs each rung
once through :func:`repro.experiments.runner.run_point` with an
:class:`~repro.obs.session.ObsSession` attached and writes the standard
run artifact, one entry per rung, its ``obs`` section carrying the
engine's exact counters and the process's peak RSS;
:mod:`repro.bench.measure` gates that RSS against a baseline.
Throughput is ``perfbench``'s job — it borrows ``calibrate``,
``write_report`` and ``peak_rss_bytes`` from here.
"""

from repro.bench.ladder import LADDER, Rung, node_counts, rung_names, rung_spec
from repro.bench.measure import calibrate, rss_gate, write_report

__all__ = ["LADDER", "Rung", "calibrate", "node_counts", "rss_gate",
           "rung_names", "rung_spec", "write_report"]
