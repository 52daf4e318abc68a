"""Per-worker shard context: ownership, exports, probes.

One :class:`ShardContext` is installed on a worker's simulator
(``sim.shard``) before the scenario is built.  It is the single object
the rest of the codebase talks to when running sharded:

* the engine's gate asks :meth:`is_local` to drop events owned by
  entities living on other shards;
* the trace gate suppresses emissions that are another shard's to make
  (control-plane records are shard 0's job — every shard executes them,
  exactly one may speak);
* the fabric calls :meth:`export` instead of scheduling an arrival when
  the destination is remote;
* scenario drivers call :meth:`register_probe` for events whose
  decision needs globally-gathered state (churn membership,
  token-holder crash), and :meth:`consume_probe` for the merged answer;
* the facade calls :meth:`adopt` when it creates entities mid-run
  (sources, churn MHs) so ownership stays total.

Ownership never changes once assigned: the map is the partition plan
plus adoptions, identical on every shard.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.address import NodeId
from repro.shard.partition import PartitionPlan


class ShardContext:
    """Everything one worker knows about the sharded world."""

    def __init__(self, shard_id: int, plan: PartitionPlan, sim):
        self.shard_id = shard_id
        self.n_shards = plan.n_shards
        self.sim = sim
        self._shard_of: Dict[NodeId, int] = dict(plan.shard_of)
        #: Cross-shard messages produced since the last sync, batched
        #: per destination shard: ``dest → [(time, key, dst, msg), …]``.
        #: Batches travel the coordinator pipe as one object per
        #: destination instead of one per message.
        self.outbox: Dict[int, List[Tuple[float, int, NodeId, Any]]] = {}
        #: Pending synchronization probes: ``(time, key, kind, event)``.
        self._probes: List[Tuple[float, int, str, Any]] = []
        self._probe_result: Any = None
        #: Probe gather functions by kind, bound by the runtime.
        self.gatherers: Dict[str, Callable[[], Any]] = {}
        #: The run's one lookahead (set by the runtime once the fabric
        #: exists); every export is checked against it.
        self.lookahead: float = 0.0
        self.exported = 0

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def is_local(self, node: NodeId) -> bool:
        """True when this shard owns ``node`` (unknown ids are bugs)."""
        return self._shard_of[node] == self.shard_id

    def adopt(self, node: NodeId, alongside: NodeId) -> None:
        """Register a new entity on the shard of an existing one.

        Called from replicated control code (``add_source``,
        ``add_mobile_host``), so every shard's map stays identical.
        """
        self._shard_of[node] = self._shard_of[alongside]

    def emission_gate(self) -> bool:
        """Trace-bus gate: may the current context emit?

        Entity contexts emit on the owner's shard; control-plane
        contexts run replicated everywhere, so exactly one shard —
        shard 0 — speaks for them.
        """
        owner = self.sim._ctx_owner
        if owner is None:
            return self.shard_id == 0
        return self._shard_of[owner] == self.shard_id

    # ------------------------------------------------------------------
    # Cross-shard messages
    # ------------------------------------------------------------------
    def export(self, time: float, delay: float, key: int, dst: NodeId,
               msg: Any) -> None:
        """Queue a message arrival for another shard.

        ``key`` is the causal key the sequential engine would have given
        the arrival event (the fabric minted it from the sending
        context), so the importing shard slots the event into exactly
        the sequential position.  ``delay`` is the fabric's computed
        transit delay — checked directly rather than re-derived as
        ``time - now``, which loses a ulp to float rounding exactly when
        the delay equals the lookahead.
        """
        dest = self._shard_of[dst]
        if delay < self.lookahead:
            raise RuntimeError(
                f"bounded-lag violation: export to shard {dest} arriving "
                f"{delay}ms ahead, lookahead {self.lookahead}ms — partition "
                f"assumption broken")
        self.outbox.setdefault(dest, []).append((time, key, dst, msg))
        self.exported += 1

    def take_outbox(self) -> Dict[int, List[Tuple[float, int, NodeId, Any]]]:
        """Drain the per-destination export batches queued since last sync."""
        out, self.outbox = self.outbox, {}
        return out

    # ------------------------------------------------------------------
    # Synchronization probes
    # ------------------------------------------------------------------
    def register_probe(self, event, kind: str) -> None:
        """Mark a scheduled control event as needing a global gather.

        The runtime forces a synchronization point exactly at the
        event's ``(time, key)``: all shards pause there, exchange the
        ``kind`` gatherer's data, and only then execute the event —
        replicated, with identical inputs.
        """
        self._probes.append((event.time, event.key, kind, event))

    def peek_probe(self) -> Optional[Tuple[float, int, str, Any]]:
        """Earliest live probe, discarding cancelled ones."""
        while self._probes:
            entry = min(self._probes)
            if entry[3].cancelled:
                self._probes.remove(entry)
                continue
            return entry
        return None

    def pop_probe(self) -> None:
        if self._probes:
            self._probes.remove(min(self._probes))

    def gather(self, kind: str) -> Any:
        """This shard's contribution to a probe of ``kind``."""
        return self.gatherers[kind]()

    def stash_probe(self, merged: Any) -> None:
        self._probe_result = merged

    def consume_probe(self) -> Any:
        """The merged probe data for the event executing right now."""
        result, self._probe_result = self._probe_result, None
        return result
