"""The pinned NE/MH scaling ladder.

Every rung is the registry's ``quickstart`` scenario (two CBR senders,
the paper's Figure-1 hierarchy) scaled from tens of nodes to a million
by widening the BR ring, the AG and AP fan-outs and the per-AP MH
population; simulated duration shrinks as the population grows.

Above ``xl`` the regime changes: ``xxl`` (~10^5 MHs) and ``metro``
(~10^6 MHs) declare almost their whole MH population as a lazy per-AP
*catchment* — a count until an open-world session arrival materializes
one — with the per-MH app log off and MQ retention pinned to the
Theorem 5.1 bound.  These are the rungs the peak-RSS gate is for:
resident memory must track the *active* population, not the declared.

Rungs are data, pinned here on purpose: a measurement whose shape
drifts with the registry cannot be compared across commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.experiments import registry
from repro.experiments.spec import ExperimentSpec

#: The registry scenario every rung derives from.
BASE_SCENARIO = "quickstart"

#: One fixed seed for the whole ladder: runs must be reproducible.
LADDER_SEED = 42


@dataclass(frozen=True)
class Rung:
    """One pinned point on the scaling ladder."""

    name: str
    n_br: int
    ags_per_br: int
    aps_per_ag: int
    mhs_per_ap: int
    duration_ms: float
    #: Lazily-registered idle MHs per AP (the catchment count); the
    #: 10^5/10^6-endpoint rungs are memory-infeasible built eagerly.
    idle_per_ap: int = 0
    #: Open-world session arrivals/s over the catchment (0 = no driver).
    openworld_arrivals: float = 0.0

    @property
    def overrides(self) -> Dict[str, Any]:
        """Dotted-path spec overrides realizing this rung."""
        d = {
            "hierarchy.n_br": self.n_br,
            "hierarchy.ags_per_br": self.ags_per_br,
            "hierarchy.aps_per_ag": self.aps_per_ag,
            "hierarchy.mhs_per_ap": self.mhs_per_ap,
            "duration_ms": self.duration_ms,
            "warmup_ms": 0.0,
            "seed": LADDER_SEED,
        }
        if self.idle_per_ap:
            # Bounded-memory mode: no per-MH app log, delivered history
            # spilled past the Theorem 5.1 MQ bound.
            d["hierarchy.idle_per_ap"] = self.idle_per_ap
            d["protocol.retain_app_log"] = False
            d["bound_retention"] = True
        if self.openworld_arrivals:
            d["openworld.enabled"] = True
            d["openworld.arrivals_per_sec"] = self.openworld_arrivals
        return d


#: tens → millions of nodes.  (nes, mhs, total) per rung:
#:   xs: (6, 4, 10)     s: (21, 24, 45)      m: (64, 192, 256)
#:   l: (174, 864, 1038)   xl: (368, 1920, 2288)
#:   xxl: (584, 100_352, 100_936)   metro: (4_232, 999_424, 1_003_656)
#: (xxl/metro MHs: 1 built + idle_per_ap *registered* per AP.)
LADDER: Tuple[Rung, ...] = (
    Rung("xs", n_br=2, ags_per_br=1, aps_per_ag=1, mhs_per_ap=2,
         duration_ms=4_000.0),
    Rung("s", n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=2,
         duration_ms=4_000.0),
    Rung("m", n_br=4, ags_per_br=3, aps_per_ag=4, mhs_per_ap=4,
         duration_ms=2_000.0),
    Rung("l", n_br=6, ags_per_br=4, aps_per_ag=6, mhs_per_ap=6,
         duration_ms=1_000.0),
    Rung("xl", n_br=8, ags_per_br=5, aps_per_ag=8, mhs_per_ap=6,
         duration_ms=500.0),
    Rung("xxl", n_br=8, ags_per_br=8, aps_per_ag=8, mhs_per_ap=1,
         duration_ms=400.0, idle_per_ap=195, openworld_arrivals=200.0),
    Rung("metro", n_br=8, ags_per_br=16, aps_per_ag=32, mhs_per_ap=1,
         duration_ms=200.0, idle_per_ap=243, openworld_arrivals=300.0),
)

#: Rungs run when ``--rungs`` is not given: the closed-world ladder.
#: xxl/metro are opt-in — they would dominate a default run's wall clock.
DEFAULT_RUNGS: Tuple[str, ...] = ("xs", "s", "m", "l", "xl")


def rung_names() -> List[str]:
    """Ladder rung names, smallest first."""
    return [r.name for r in LADDER]


def get_rung(name: str) -> Rung:
    """The rung called ``name``, case- and whitespace-insensitively
    (KeyError lists the valid ones)."""
    canon = name.strip().lower()
    for rung in LADDER:
        if rung.name == canon:
            return rung
    raise KeyError(
        f"unknown ladder rung {name!r}; known: {', '.join(rung_names())}")


def rung_spec(rung: Rung) -> ExperimentSpec:
    """Materialize a rung as a runnable spec."""
    return registry.get(BASE_SCENARIO, **rung.overrides)


def node_counts(spec: ExperimentSpec) -> Dict[str, int]:
    """NE/MH/total population of a spec's hierarchy (depth-1 and deep);
    ``mhs`` is the *declared* count: eagerly built + ``idle_per_ap``."""
    h = spec.hierarchy
    if h.depth > 1:
        ags = sum(h.n_br * h.ring_size ** level
                  for level in range(1, h.depth + 1))
        leaf_ags = h.n_br * h.ring_size ** h.depth
        aps = leaf_ags * h.aps_per_ag
    else:
        ags = h.n_br * h.ags_per_br
        aps = ags * h.aps_per_ag
    nes = h.n_br + ags + aps
    mhs = aps * (h.mhs_per_ap + h.idle_per_ap)
    return {"nes": nes, "mhs": mhs, "total": nes + mhs}
