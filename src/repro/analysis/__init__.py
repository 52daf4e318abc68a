"""Analytic side of the reproduction: Theorem 5.1 bounds.

:mod:`repro.analysis.bounds` computes the paper's closed-form bounds
from protocol/topology parameters; :mod:`repro.analysis.retransmission`
models the per-hop retransmission scheme.
"""

from repro.analysis.bounds import TheoremBounds, bounds_for
from repro.analysis.retransmission import RetransmissionModel

__all__ = ["TheoremBounds", "bounds_for", "RetransmissionModel"]
