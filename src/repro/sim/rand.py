"""Named, independently seeded random streams.

Every stochastic decision in the simulator (link jitter, loss draws,
mobility, workload inter-arrival times) pulls from a *named* stream so
that changing one source of randomness does not perturb the draws seen by
another — the standard variance-reduction / reproducibility discipline for
simulation studies.

Streams are lazily created ``numpy.random.Generator`` instances whose
seeds derive from the master seed and the stream name via
``numpy.random.SeedSequence``; names are stable across runs and platforms.
When numpy is unavailable, a pure-python stand-in backed by
``random.Random`` provides the three draw methods the simulator uses
(``random`` / ``exponential`` / ``integers``) — draws differ from the
numpy streams but stay deterministic for a fixed seed, so experiment
replay still holds within either mode.

A stream that draws nothing but ``random()`` can be read through
:meth:`RandomStreams.uniform` instead of :meth:`RandomStreams.get`: the
same doubles, drawn from numpy a block at a time, through a ``random``
that is a C callable — a draw costs ~55 ns where a numpy scalar draw
costs 450–750 ns, and runs no python frame (:class:`UniformBlocks`).
"""

from __future__ import annotations

import random as _pyrandom
import zlib
from array import array
from itertools import chain
from typing import Dict, Optional

try:  # optional: the simulator degrades to python's Mersenne Twister
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None


def derive_seed(root_seed: int, *path: object) -> int:
    """Derive a child seed from ``root_seed`` and a key path.

    SHA-256 over the decimal root seed and the stringified path keys,
    truncated to 63 bits — deterministic across platforms, processes,
    and Python versions (no ``hash()`` randomization, no numpy needed).
    Replications and sweep points use this instead of ad-hoc
    ``seed + i`` arithmetic, which correlates nearby streams.
    """
    import hashlib
    h = hashlib.sha256(str(int(root_seed)).encode("ascii"))
    for key in path:
        h.update(b"/")
        h.update(str(key).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


class PurePythonGenerator:
    """Minimal ``numpy.random.Generator`` stand-in (no numpy needed).

    Covers exactly the draw methods the simulator pulls from its named
    streams: uniform ``random()``, ``exponential(scale)``, and
    ``integers(n)`` / ``integers(low, high)`` with numpy's half-open
    interval convention.
    """

    __slots__ = ("_random",)

    def __init__(self, seed: int):
        self._random = _pyrandom.Random(seed)

    def random(self) -> float:
        return self._random.random()

    def exponential(self, scale: float = 1.0) -> float:
        return self._random.expovariate(1.0 / scale)

    def integers(self, low: int, high: Optional[int] = None) -> int:
        if high is None:
            low, high = 0, low
        return self._random.randrange(low, high)


#: Largest block a :class:`UniformBlocks` reader draws per refill.
UNIFORM_BLOCK = 64


class UniformBlocks:
    """``random()`` — and nothing else — over one numpy stream, drawn
    a block at a time.

    ``Generator.random(n)`` yields exactly the doubles ``n`` scalar
    ``random()`` calls would, so the draw sequence is the stream's own
    whatever the block sizes; that holds only while nothing else draws
    from the generator, which is why :class:`RandomStreams` hands a
    name out through :meth:`~RandomStreams.uniform` *or*
    :meth:`~RandomStreams.get`, never both.

    ``random`` is ``__next__`` of a ``chain`` over the blocks that
    ``iter(self._refill, None)`` yields, so a draw runs no python frame;
    only a refill does.  A draw costs ~55 ns at a block of 64, ~100 ns
    at 32 and ~340 ns at 8, where the python-level reader this replaced
    cost ~450 ns at 8 and a numpy scalar draw 450–750 ns (2-core
    container, python 3.11.7).  Blocks double from 2 up to
    :data:`UNIFORM_BLOCK`, so a sender that draws a handful of times
    holds a few doubles, not a full block.  A reader holds ~440 B after
    its first draw (the python-level one 176 B) plus its block; measured
    on ``perfbench``, 64 reads +1.9 % peak RSS on ``fanout_wide`` (~2,000
    readers), +0.5 % on ``lossy_churn`` and ±0.1 % elsewhere.
    """

    __slots__ = ("random", "_gen", "_n")

    def __init__(self, gen):
        self._gen = gen
        self._n = 0
        self.random = chain.from_iterable(iter(self._refill, None)).__next__

    def _refill(self) -> array:
        n = self._n = min(2 * self._n or 2, UNIFORM_BLOCK)
        return array("d", self._gen.random(n).tobytes())


class RandomStreams:
    """Factory and registry of named deterministic random generators."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, object] = {}
        self._uniform: Dict[str, object] = {}

    def _create(self, name: str, taken: Dict[str, object]):
        """A fresh generator for ``name`` (cold path of both accessors);
        ``taken`` is the *other* accessor's registry."""
        if name in taken:
            raise ValueError(
                f"random stream {name!r} is already handed out by the other "
                f"accessor: a stream is read through uniform() or through "
                f"get(), never both (block draws would reorder its sequence)")
        if np is not None:
            # crc32: a stable, platform-independent hash of the name.
            tag = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.master_seed,
                                         spawn_key=(tag,))
            return np.random.default_rng(seq)
        return PurePythonGenerator(
            derive_seed(self.master_seed, "stream", name))

    def get(self, name: str):
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = self._create(name, self._uniform)
        return gen

    def uniform(self, name: str):
        """Return (creating on first use) the ``random()``-only reader of
        stream ``name`` — the same doubles :meth:`get`'s generator would
        yield, drawn a block at a time (:class:`UniformBlocks`).  For
        streams that never draw anything else (link loss and jitter, the
        Gilbert–Elliott chains); without numpy the reader is the
        :class:`PurePythonGenerator` itself.
        """
        reader = self._uniform.get(name)
        if reader is None:
            reader = self._create(name, self._streams)
            if np is not None:
                reader = UniformBlocks(reader)
            self._uniform[name] = reader
        return reader

    def spawn(self, run_index: object) -> "RandomStreams":
        """A fresh :class:`RandomStreams` for replication ``run_index``.

        The child's master seed derives from this instance's seed and
        the index via :func:`derive_seed`, so every replication gets
        independent, reproducible streams — no shared state with the
        parent or with siblings.
        """
        return RandomStreams(derive_seed(self.master_seed, "spawn", run_index))

    def reset(self) -> None:
        """Drop all streams; next access recreates them from scratch."""
        self._streams.clear()
        self._uniform.clear()

    def names(self) -> list[str]:
        """Names of streams created so far (sorted, for stable reports)."""
        return sorted([*self._streams, *self._uniform])

    def __contains__(self, name: str) -> bool:
        return name in self._streams or name in self._uniform

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = len(self._streams) + len(self._uniform)
        return f"<RandomStreams seed={self.master_seed} n={n}>"
