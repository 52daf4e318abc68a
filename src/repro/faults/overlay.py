"""The fault overlay: the fabric-side view of active fault actions.

One :class:`FaultOverlay` hangs off ``Fabric.fault_overlay`` and is
consulted by ``Fabric.send()`` on every transmission while any action is
active.  The overlay never schedules anything itself — activation and
expiry are control-plane events owned by
:class:`repro.faults.driver.FaultDriver`, which installs *resolved*
entries (concrete node groups, link patterns) here.

Determinism contract (what keeps K-shard traces byte-identical):

* install/remove happen in replicated control-plane events, so every
  shard sees the same active set at the same simulated instant;
* partition/degrade verdicts for a (src, dst) pair are pure functions of
  the active set, resolved per sender and pair (the fabric keeps them on
  its per-sender record) and invalidated by :attr:`FaultOverlay.epoch`,
  which every change bumps;
* flap up/down is a pure function of simulated time (no toggle events);
* Gilbert–Elliott chains advance per *sender* transmission from a
  per-sender random stream (``fault.ge.<src>``), so a sender's draw
  sequence depends only on its own transmission history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.gilbert import GilbertElliott
from repro.faults.plan import Flap, selector_matches


def _pair_matches(patterns: List[List[str]], src: str, dst: str) -> bool:
    """Does any ``[a, b]`` pattern pair cover the link either way round?"""
    for a, b in patterns:
        if (selector_matches(a, src) and selector_matches(b, dst)) or \
                (selector_matches(a, dst) and selector_matches(b, src)):
            return True
    return False


class _PairFx:
    """The active set's verdict on one (src, dst) pair for one epoch:
    ``blocks`` — can :meth:`FaultOverlay.blocked_by` silence it at all;
    ``bursts`` — ``src``'s own chains, stepped with ``ge``, its
    ``fault.ge.<src>`` reader."""

    __slots__ = ("blocks", "partition_of", "flaps", "loss", "factor",
                 "bursts", "ge")

    def __init__(self, partition_of: Optional[int],
                 flaps: Tuple[Tuple[int, Flap], ...],
                 loss: Optional[float], factor: float,
                 bursts: Tuple[Tuple[int, GilbertElliott], ...], ge):
        self.blocks = partition_of is not None or bool(flaps)
        self.partition_of = partition_of
        self.flaps = flaps
        self.loss = loss
        self.factor = factor
        self.bursts = bursts
        self.ge = ge


class _BurstEntry:
    """One active LossBurst: patterns + per-sender chain states."""

    __slots__ = ("patterns", "p_gb", "p_bg", "loss_good", "loss_bad",
                 "chains")

    def __init__(self, patterns, p_gb, p_bg, loss_good, loss_bad):
        self.patterns = patterns
        self.p_gb = p_gb
        self.p_bg = p_bg
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.chains: Dict[str, GilbertElliott] = {}


class FaultOverlay:
    """Active fault entries and the per-pair verdicts they imply."""

    def __init__(self, sim):
        self.sim = sim
        #: index -> (groups as tuple of disjoint frozensets, direction)
        self._partitions: Dict[int, Tuple[Tuple[frozenset, ...], str]] = {}
        #: index -> (patterns, loss override or None, latency factor)
        self._degrades: Dict[int, Tuple[list, Optional[float], float]] = {}
        #: index -> the Flap action (time function lives on the action)
        self._flaps: Dict[int, Flap] = {}
        self._bursts: Dict[int, _BurstEntry] = {}
        #: Bumped by every change of the active set; a verdict resolved
        #: under another epoch is stale.
        self.epoch = 0
        #: Per-action drop tallies (diagnostics; never trace-bearing).
        self.drops_by_action: Dict[int, int] = {}
        self.active = False
        self._next_namespace = 0

    def claim_namespace(self, n_actions: int) -> int:
        """Reserve a contiguous index range for one driver's entries.

        Lets multiple :class:`~repro.faults.driver.FaultDriver`\\ s share
        a fabric without their plan-local action indices colliding; the
        first (and in practice usually only) driver gets base 0, so its
        overlay/trace indices equal its plan indices.
        """
        base = self._next_namespace
        self._next_namespace = base + n_actions
        return base

    # ------------------------------------------------------------------
    # Entry management (driver-only)
    # ------------------------------------------------------------------
    def _changed(self) -> None:
        self.epoch += 1
        self.active = bool(self._partitions or self._degrades
                           or self._flaps or self._bursts)

    def install_partition(self, index: int, groups: Tuple[frozenset, ...],
                          direction: str) -> None:
        self._partitions[index] = (groups, direction)
        self._changed()

    def install_degrade(self, index: int, patterns: list,
                        loss: Optional[float], factor: float) -> None:
        self._degrades[index] = (patterns, loss, factor)
        self._changed()

    def install_flap(self, index: int, action: Flap) -> None:
        self._flaps[index] = action
        self._changed()

    def install_burst(self, index: int, entry: _BurstEntry) -> None:
        self._bursts[index] = entry
        self._changed()

    def remove(self, index: int) -> None:
        """Deactivate the entry installed under ``index`` (heal/expire)."""
        for table in (self._partitions, self._degrades, self._flaps,
                      self._bursts):
            if table.pop(index, None) is not None:
                self._changed()
                return
        raise KeyError(f"no active fault entry with index {index}")

    # ------------------------------------------------------------------
    # Send-path queries
    # ------------------------------------------------------------------
    def verdict(self, src: str, dst: str) -> Optional[_PairFx]:
        """The active set's effect on ``src -> dst``, or None (cold: the
        fabric resolves a pair once per epoch and keeps the result)."""
        partition_of: Optional[int] = None
        for index in sorted(self._partitions):
            groups, direction = self._partitions[index]
            gi_src = gi_dst = None
            for gi, members in enumerate(groups):
                if gi_src is None and src in members:
                    gi_src = gi
                if gi_dst is None and dst in members:
                    gi_dst = gi
            if gi_src is None or gi_dst is None or gi_src == gi_dst:
                continue
            if (direction == "both"
                    or (direction == "a_to_b" and gi_src == 0)
                    or (direction == "b_to_a" and gi_src == 1)):
                partition_of = index
                break
        flaps = tuple((i, f) for i, f in sorted(self._flaps.items())
                      if _pair_matches([f.link], src, dst))
        loss: Optional[float] = None
        factor = 1.0
        for index in sorted(self._degrades):
            patterns, d_loss, d_factor = self._degrades[index]
            if not _pair_matches(patterns, src, dst):
                continue
            if d_loss is not None:
                loss = d_loss if loss is None else max(loss, d_loss)
            factor *= d_factor
        bursts = tuple((i, e.chains.setdefault(src, GilbertElliott(
            e.p_gb, e.p_bg, e.loss_good, e.loss_bad)))
            for i, e in sorted(self._bursts.items())
            if _pair_matches(e.patterns, src, dst))
        if partition_of is None and not flaps and loss is None \
                and factor == 1.0 and not bursts:
            return None
        ge = self.sim.streams.uniform(f"fault.ge.{src}") if bursts else None
        return _PairFx(partition_of, flaps, loss, factor, bursts, ge)

    def blocked_by(self, fx: _PairFx, now: float) -> Optional[int]:
        """Action index silencing this pair right now, or None."""
        if fx.partition_of is not None:
            return fx.partition_of
        for index, flap in fx.flaps:
            if not flap.is_up(now):
                return index
        return None

    def note_drop(self, index: int) -> None:
        self.drops_by_action[index] = self.drops_by_action.get(index, 0) + 1

    def report(self) -> Dict[str, object]:
        """Diagnostic snapshot (active entries + drop tallies)."""
        return {
            "active_partitions": sorted(self._partitions),
            "active_degrades": sorted(self._degrades),
            "active_flaps": sorted(self._flaps),
            "active_bursts": sorted(self._bursts),
            "drops_by_action": dict(sorted(self.drops_by_action.items())),
        }
