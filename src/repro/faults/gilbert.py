"""Gilbert–Elliott two-state correlated-loss channel model.

The classic burst-loss model: a hidden Markov chain alternates between a
*good* state (loss probability ``loss_good``, usually ~0) and a *bad*
state (``loss_bad``, usually near 1).  Per transmission the chain first
draws the drop decision from the current state, then transitions
(good→bad with ``p_gb``, bad→good with ``p_bg``).

Closed-form properties used by the property tests:

* stationary bad-state probability ``π_B = p_gb / (p_gb + p_bg)``;
* long-run loss rate ``π_B·loss_bad + (1-π_B)·loss_good``;
* bad-state sojourns are geometric with mean ``1 / p_bg``.

Determinism: a chain consumes exactly **two** uniform draws per step
(drop, then transition) whatever the outcome, so a sender's draw
sequence depends only on how many affected transmissions it has made —
never on the outcomes — which keeps replay and shard decomposition
byte-stable.
"""

from __future__ import annotations


class GilbertElliott:
    """One sender's chain state plus the model parameters.

    ``rng`` objects passed to :meth:`step` need only a ``random()``
    method (both numpy ``Generator`` and the pure-python fallback of
    :mod:`repro.sim.rand` qualify).
    """

    __slots__ = ("p_gb", "p_bg", "loss_good", "loss_bad", "bad")

    def __init__(self, p_gb: float, p_bg: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0,
                 start_bad: bool = False):
        if not 0.0 < p_gb <= 1.0 or not 0.0 < p_bg <= 1.0:
            raise ValueError("transition probabilities must be in (0, 1]")
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = start_bad

    # ------------------------------------------------------------------
    @property
    def stationary_bad(self) -> float:
        """Long-run probability of the bad state."""
        return self.p_gb / (self.p_gb + self.p_bg)

    @property
    def stationary_loss(self) -> float:
        """Long-run expected loss rate."""
        pi_b = self.stationary_bad
        return pi_b * self.loss_bad + (1.0 - pi_b) * self.loss_good

    # ------------------------------------------------------------------
    def step(self, rng) -> bool:
        """Advance one transmission; True when it is dropped.

        Always consumes exactly two draws (drop, transition) so the
        stream position is a pure function of the step count.
        """
        loss = self.loss_bad if self.bad else self.loss_good
        drop = rng.random() < loss
        flip = rng.random()
        if self.bad:
            if flip < self.p_bg:
                self.bad = False
        elif flip < self.p_gb:
            self.bad = True
        return drop
