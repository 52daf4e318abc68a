"""RingNet: a reliable totally-ordered group multicast protocol for
mobile Internet — a full reproduction of Wang, Cao & Chan (ICPPW 2004).

The package map is the "Layout" table in README.md (one map, kept
there); "How a spec becomes a run" in the same file is the path from an
``ExperimentSpec`` to results on any of the three backends.

Quickstart
----------
>>> from repro.sim import Simulator
>>> from repro.core import RingNet
>>> from repro import HierarchyShape
>>> sim = Simulator(seed=7)
>>> net = RingNet.build(sim, HierarchyShape(ags_per_br=3))
>>> src = net.add_source(rate_per_sec=20)
>>> net.start(); src.start()
>>> sim.run(until=5000)
>>> net.total_app_deliveries() > 0
True

Experiments
-----------
Evaluations are data, not scripts: an
:class:`~repro.experiments.spec.ExperimentSpec` names a hierarchy
shape, protocol knobs, workload, mobility/churn/failure dynamics, and a
duration; it round-trips through JSON, expands over parameter grids
with deterministically derived replication seeds, and runs serially or
across worker processes with identical results either way::

    from repro.experiments import registry, expand_grid, run_sweep, aggregate
    base = registry.get("quickstart")
    points = expand_grid(base, {"hierarchy.n_br": [3, 5, 7],
                                "workload.rate_per_sec": [10, 50, 100]},
                         replications=3)
    rows = aggregate(run_sweep(points, jobs=4))

or, from a shell::

    python -m repro list
    python -m repro run quickstart --duration 2000
    python -m repro sweep --out results.json --jobs 4

``python -m repro`` (:mod:`repro.__main__`) is the one command line;
README "Command line" lists every subcommand and exit code.

Validation
----------
Every run can carry the full protocol-invariant monitor suite — pure
observers, so checked and unchecked runs are byte-identical::

    python -m repro run failure_drill --check

and randomized-but-seeded conformance campaigns, trace recording,
offline replay, and first-divergence diffing come from
:mod:`repro.validation`::

    python -m repro fuzz --budget 50 --duration 3000
    python -m repro run quickstart --record a.jsonl
    python -m repro replay a.jsonl
    python -m repro replay a.jsonl b.jsonl
"""

__version__ = "1.0.0"

from repro.sim import Simulator
from repro.core import ProtocolConfig, RingNet
from repro.topology import HierarchyShape

__all__ = ["Simulator", "RingNet", "ProtocolConfig", "HierarchyShape",
           "__version__"]
