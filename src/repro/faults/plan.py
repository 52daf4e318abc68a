"""Declarative fault plans: composable, timed fault actions.

A :class:`FaultPlan` is an ordered list of timed :class:`FaultAction`\\ s,
the one description of every fault a run injects:

* :class:`Crash` — fail-stop one node (an NE crash repairs through
  topology maintenance and token regeneration);
* :class:`Partition` — drop all traffic crossing a set of node groups
  (including **asymmetric** one-way partitions), healing at a scheduled
  instant;
* :class:`Degrade` — dynamic per-link loss/latency overrides layered on
  top of the static :class:`~repro.net.link.LinkSpec`;
* :class:`Flap` — a periodically flapping link (up ``duty`` of every
  ``period_ms``);
* :class:`LossBurst` — correlated loss bursts from a Gilbert–Elliott
  two-state channel (see :mod:`repro.faults.gilbert`).

Like :class:`~repro.experiments.spec.ExperimentSpec` (which carries a
plan in its ``faults`` section), this module is pure data: plans
round-trip through dicts and JSON, so a fault schedule can live in a
spec file, travel to a sweep worker, or be diffed between campaigns.
Executing a plan is the job of :class:`repro.faults.driver.FaultDriver`.

Node **selectors** are plain ids (``"br:0"``), ``fnmatch`` glob patterns
over ids (``"ap:0.*"``), or one of three dynamic forms resolved at
activation time:

* ``"@token_holder"`` — the top-ring NE holding the OrderingToken (a
  crash target only);
* ``"@token_holder_subtree"`` — the hierarchy subtree under the top-ring
  NE currently holding the OrderingToken (plus the MHs structurally
  homed there and the sources feeding it);
* ``"@rest"`` — every fabric node not claimed by any other group of the
  same partition (only meaningful as a partition group).

A node matched by **no** group of a partition is unaffected by it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

#: Crash target resolved dynamically to the token holder itself.
TOKEN_HOLDER = "@token_holder"

#: Selector resolved dynamically to the token holder's subtree.
TOKEN_HOLDER_SUBTREE = "@token_holder_subtree"

#: Selector for "every node not in any other group" (partitions only).
REST = "@rest"

#: Valid one-way/two-way partition directions.  ``a_to_b`` drops only
#: traffic *from* group 0 *to* group 1 (and requires exactly 2 groups).
DIRECTIONS = ("both", "a_to_b", "b_to_a")


def selector_matches(selector: str, node_id: str) -> bool:
    """Does a (non-dynamic) selector cover ``node_id``?"""
    return selector == node_id or fnmatchcase(node_id, selector)


def _check_keys(cls: type, data: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys {unknown}; valid keys: "
            f"{sorted(known)}")


def _check_pairs(name: str, links: Sequence[Sequence[str]]) -> None:
    if not links:
        raise ValueError(f"{name} needs at least one link pattern pair")
    for pair in links:
        if len(pair) != 2:
            raise ValueError(
                f"{name} link patterns must be [a, b] pairs, got {pair!r}")


@dataclass
class FaultAction:
    """Base of all fault actions: a kind plus an activation instant."""

    kind: str = ""
    at_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError("at_ms must be >= 0")

    #: Time the action stops affecting traffic (None = never).
    def end_ms(self) -> Optional[float]:
        return None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultAction":
        kinds = {"crash": Crash, "partition": Partition, "degrade": Degrade,
                 "flap": Flap, "loss_burst": LossBurst}
        kind = data.get("kind")
        if kind not in kinds:
            raise ValueError(
                f"unknown fault action kind {kind!r}; valid: "
                f"{sorted(kinds)}")
        sub = kinds[kind]
        _check_keys(sub, data)
        return sub(**data)


@dataclass
class Crash(FaultAction):
    """Fail-stop ``target`` at ``at_ms``; a crashed node never recovers.

    ``target`` is a node id, or :data:`TOKEN_HOLDER` for whichever
    top-ring NE holds the OrderingToken at ``at_ms``.
    """

    kind: str = "crash"
    target: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.target:
            raise ValueError(
                f"a crash needs a target node id or {TOKEN_HOLDER!r}")

    @property
    def dynamic(self) -> bool:
        """True when resolution needs run-time state (the token holder)."""
        return self.target == TOKEN_HOLDER


@dataclass
class Partition(FaultAction):
    """Drop traffic crossing ``groups`` from ``at_ms`` until healed.

    ``groups`` is a list of at least two selector lists.  A message is
    dropped when its source and destination resolve into *different*
    groups (and ``direction`` covers that crossing); nodes in no group
    are unaffected.  ``heal_at_ms=None`` never heals.
    """

    kind: str = "partition"
    groups: List[List[str]] = field(default_factory=list)
    heal_at_ms: Optional[float] = None
    direction: str = "both"

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")
        for g in self.groups:
            if not g:
                raise ValueError("partition groups must be non-empty")
        n_rest = sum(1 for g in self.groups if REST in g)
        if n_rest > 1:
            raise ValueError(f"at most one group may contain {REST!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.direction != "both" and len(self.groups) != 2:
            raise ValueError(
                "one-way partitions need exactly two groups")
        if self.heal_at_ms is not None and self.heal_at_ms <= self.at_ms:
            raise ValueError("heal_at_ms must be after at_ms")

    def end_ms(self) -> Optional[float]:
        return self.heal_at_ms

    @property
    def dynamic(self) -> bool:
        """True when resolution needs run-time state (the token holder)."""
        return any(TOKEN_HOLDER_SUBTREE in g for g in self.groups)


@dataclass
class Degrade(FaultAction):
    """Loss/latency overrides on matching links for a time window.

    ``links`` lists ``[a, b]`` selector-pattern pairs (direction-
    agnostic: a pair covers a link when its endpoints match the
    patterns either way round).  ``loss`` (when given) replaces the
    link's configured loss probability; ``latency_factor`` multiplies
    its base latency.  ``latency_factor`` must be **>= 1**: the shard
    runtime's lookahead is the minimum *configured* cut-link latency,
    so a fault may slow a link but never speed it up.
    """

    kind: str = "degrade"
    until_ms: float = 0.0
    links: List[List[str]] = field(default_factory=list)
    loss: Optional[float] = None
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pairs("Degrade", self.links)
        if self.until_ms <= self.at_ms:
            raise ValueError("until_ms must be after at_ms")
        if self.loss is not None and not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        if self.latency_factor < 1.0:
            raise ValueError(
                "latency_factor must be >= 1 (the sharded backend's "
                "lookahead assumes configured latencies are lower bounds)")
        if self.loss is None and self.latency_factor == 1.0:
            raise ValueError("Degrade must override loss or latency")

    def end_ms(self) -> Optional[float]:
        return self.until_ms


@dataclass
class Flap(FaultAction):
    """A periodically flapping link: up ``duty`` of every ``period_ms``.

    The link is up during the first ``duty * period_ms`` of each period
    (phase anchored at ``at_ms``) and drops everything for the rest.
    Pure function of simulated time — no per-toggle events — so the
    schedule is identical at any shard count by construction.
    """

    kind: str = "flap"
    until_ms: float = 0.0
    link: List[str] = field(default_factory=list)
    period_ms: float = 100.0
    duty: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.link) != 2:
            raise ValueError("Flap link must be an [a, b] pattern pair")
        if self.until_ms <= self.at_ms:
            raise ValueError("until_ms must be after at_ms")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")

    def end_ms(self) -> Optional[float]:
        return self.until_ms

    def is_up(self, now: float) -> bool:
        """Flap phase at simulated time ``now`` (up or down)."""
        phase = (now - self.at_ms) % self.period_ms
        return phase < self.duty * self.period_ms


@dataclass
class LossBurst(FaultAction):
    """Gilbert–Elliott correlated loss on matching links.

    The two-state chain (good/bad) advances once per transmission by
    each affected *sender*, drawing from a per-sender random stream
    (``fault.ge.<src>``) exactly like the fabric's jitter streams — so
    shard decomposition cannot change any sender's draw sequence.
    """

    kind: str = "loss_burst"
    until_ms: float = 0.0
    links: List[List[str]] = field(default_factory=list)
    p_gb: float = 0.05
    p_bg: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_pairs("LossBurst", self.links)
        if self.until_ms <= self.at_ms:
            raise ValueError("until_ms must be after at_ms")
        for name in ("p_gb", "p_bg"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def end_ms(self) -> Optional[float]:
        return self.until_ms

    @property
    def stationary_loss(self) -> float:
        """Long-run expected loss rate of the chain."""
        pi_bad = self.p_gb / (self.p_gb + self.p_bg)
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good


@dataclass
class FaultPlan:
    """An ordered list of timed fault actions (JSON round-trippable)."""

    actions: List[FaultAction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[FaultAction]:
        return iter(self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"actions": [a.to_dict() for a in self.actions]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        _check_keys(cls, data)
        return cls(actions=[FaultAction.from_dict(a)
                            for a in data.get("actions", [])])

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def span(self) -> Optional[tuple]:
        """(first activation, last known end) or None when empty.

        The end is None when any action never ends (a crash or an
        unhealed partition).
        """
        if not self.actions:
            return None
        start = min(a.at_ms for a in self.actions)
        ends = [a.end_ms() for a in self.actions]
        return (start, None if any(e is None for e in ends) else max(ends))

    def describe(self) -> List[str]:
        """One human-readable line per action, in activation order.

        Each line leads with the action's *plan index* — the same index
        the driver stamps into ``fault.*`` trace records and overlay
        drop tallies — so timelines and traces cross-reference.
        """
        lines = []
        order = sorted(enumerate(self.actions),
                       key=lambda pair: (pair[1].at_ms, pair[0]))
        for i, a in order:
            end = a.end_ms()
            window = (f"[{a.at_ms:g}, {end:g}) ms" if end is not None
                      else f"[{a.at_ms:g}, ∞) ms")
            if isinstance(a, Crash):
                detail = a.target
            elif isinstance(a, Partition):
                detail = (f"{len(a.groups)} groups, {a.direction}, "
                          + " | ".join(",".join(g) for g in a.groups))
            elif isinstance(a, Degrade):
                detail = (f"links={['<->'.join(p) for p in a.links]} "
                          f"loss={a.loss} x{a.latency_factor:g} latency")
            elif isinstance(a, Flap):
                detail = (f"{'<->'.join(a.link)} period={a.period_ms:g}ms "
                          f"duty={a.duty:g}")
            elif isinstance(a, LossBurst):
                detail = (f"links={['<->'.join(p) for p in a.links]} "
                          f"p_gb={a.p_gb:g} p_bg={a.p_bg:g} "
                          f"loss_bad={a.loss_bad:g} "
                          f"(stationary {a.stationary_loss:.3f})")
            else:  # pragma: no cover - future kinds
                detail = ""
            lines.append(f"{i:2d}. {a.kind:<10s} {window:<18s} {detail}")
        return lines
