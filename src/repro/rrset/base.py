"""General RR-set interface (paper Definition 1, §6.1).

For a diffusion model ``M`` with equivalent possible-world model ``M'``,
the RR-set of a root ``v`` in a world ``W`` is::

    R_W(v) = { u : the singleton seed set {u} activates v in W }

A *random* RR-set draws ``W`` from ``M'`` and ``v`` uniformly.  When every
world satisfies

* **(P1)** activation is monotone in the seed set, and
* **(P2)** any activating set contains a singleton activator,

the probability that a seed set ``S`` activates a uniform node equals the
probability that ``S`` intersects a random RR-set (activation equivalence,
Definition 2 / Lemma 5), which is what TIM-style algorithms estimate.

Two sampling paths
------------------

* :meth:`RRSetGenerator.generate` — one root, one lazily-sampled world, a
  per-root Python BFS.  This is the *correctness oracle*: every regime
  implements it, and the batched fast paths are validated against it.
* :meth:`RRSetGenerator.generate_batch` — many roots at once into a flat
  :class:`~repro.rrset.pool.RRSetPool`.  The base implementation just
  loops the oracle; every regime with a vectorized kernel binds
  :func:`chunked_generate_batch` instead, which splits the roots into
  chunks and hands each to the kernel's level-synchronous bulk sweeps
  (whole coin/threshold arrays per level instead of per-edge memoised
  Python calls).  Generators must stay *picklable* (plain
  graph/GAP/seed attributes, no open resources):
  :class:`~repro.parallel.ParallelEngine` ships a replica to each worker
  process and shards ``generate_batch`` across them, which is also why it
  can itself pose as a generator and drop into TIM/IMM unchanged.  Every
  paper regime has a fast kernel — RR-IC (:mod:`repro.rrset.rr_ic`),
  RR-SIM (:mod:`repro.rrset.rr_sim`), RR-SIM+
  (:mod:`repro.rrset.rr_sim_plus`), RR-CIM with its four-label forward
  pass (:mod:`repro.rrset.rr_cim`), classic-LT (:mod:`repro.rrset.rr_lt`)
  and the blocking suppression-set regime (:mod:`repro.rrset.rr_block`) —
  so TIM / IMM sampling always runs batched; only the exotic
  product-dependent regime (:mod:`repro.rrset.rr_sim_product`) still
  falls back to this oracle loop.  CI's ``BENCH_rrset.json`` regression
  gate fails if any fast-path regime's batch-vs-oracle speedup drops
  below its recorded floor.

The chunk driver
----------------

:func:`chunked_generate_batch` is the one chunk loop of all six batched
kernels.  It draws the roots, picks the sweep-state backend and the chunk
size from :attr:`RRSetGenerator.sweep`, gives every chunk a fresh
:class:`~repro.rrset.pool.ChunkCoinMemo`, extracts touch columns from the
memo and appends the chunk to the pool.  A kernel class binds it with
``generate_batch = chunked_generate_batch`` (the binding must sit in the
class's own ``__dict__``: tracers patch methods there) and supplies:

* ``state_bytes_per_node`` — dense sweep-state bytes per (member, node);
* ``max_members`` — the kernel's own cap on members per chunk;
* ``probe_chunk`` — the first chunk's size.  Later chunks are re-sized
  so that ``coins`` per member times the chunk stays near
  :data:`COIN_BUDGET`; kernels that flip no memoised coins set it to
  ``max_members`` and always run full chunks;
* ``_sample_chunk(chunk_roots, gen, memo, world, backend) -> (nodes,
  lengths, coins)`` — sample one set per root of the chunk.  ``nodes`` is
  the chunk's sets packed in root order, ``lengths`` one size per root
  (zeros included) and ``coins`` the memo load the next chunk is sized
  from (usually ``memo.size``).  Under a lazily-sampled world
  (``world is None``) every edge coin must go through ``memo`` —
  :meth:`~repro.rrset.pool.ChunkCoinMemo.record` for provable first
  flips, :meth:`~repro.rrset.pool.ChunkCoinMemo.lookup_or_draw`
  otherwise — so an edge keeps one coin per world and the memo's keys
  are exactly the chunk's edge-touch record.  A pinned ``world`` replaces
  every draw and leaves the memo empty.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.models.possible_world import PossibleWorld
from repro.rng import SeedLike, make_rng
from repro.rrset.pool import ChunkCoinMemo, RRSetPool, touches_from_keys
from repro.rrset.sweep import DEFAULT_SWEEP, SweepConfig

#: Target number of memoised coins per chunk (entries of an int64 key plus
#: a bool value) — bounds chunk memory on worlds whose sweeps flip many
#: coins per member.  Shared by every kernel bound to
#: :func:`chunked_generate_batch`.
COIN_BUDGET = 16 << 20


class RRSetGenerator(abc.ABC):
    """A sampler of random RR-sets for one optimisation problem instance.

    Subclasses fix the diffusion model, the GAPs and the opposite seed set;
    :meth:`generate` draws a fresh lazy possible world per call.
    """

    #: How this regime exposes per-member edge-touch information for
    #: delta repair (:mod:`repro.rrset.repair`): ``"recorded"`` kernels
    #: emit explicit sorted edge-id signatures, ``"implicit"`` regimes
    #: test exactly the in-edges of member nodes (so membership alone
    #: decides affectedness), and ``"none"`` regimes cannot be repaired.
    touch_mode: str = "none"

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        #: chunk-state policy of the batched kernels (backend selection
        #: and per-chunk state budget); sessions overwrite it from
        #: ``EngineConfig`` after construction.  A frozen dataclass, so
        #: it pickles along with the generator to parallel workers.
        self.sweep: SweepConfig = DEFAULT_SWEEP

    @property
    def graph(self) -> DiGraph:
        """The underlying influence graph."""
        return self._graph

    def random_root(self, rng: SeedLike = None) -> int:
        """Draw a uniform random root node.

        Pass an existing :class:`numpy.random.Generator` to advance one
        shared stream; an int (or ``None``) builds a *fresh* generator per
        call, so repeated calls with the same int repeat the same root.
        """
        return int(self.random_roots(1, rng=rng)[0])

    def random_roots(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Draw ``count`` uniform roots in one bulk ``integers`` call."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        gen = make_rng(rng)
        return gen.integers(0, self._graph.num_nodes, size=count, dtype=np.int64)

    @abc.abstractmethod
    def generate(self, *, rng: SeedLike = None, root: Optional[int] = None) -> np.ndarray:
        """Return one random RR-set as a unique node-id array.

        ``root`` fixes the root (tests of activation equivalence need this);
        when ``None`` a uniform root is drawn.  Every call samples an
        independent possible world.
        """

    def generate_many(self, count: int, *, rng: SeedLike = None) -> list[np.ndarray]:
        """Generate ``count`` independent random RR-sets (oracle path).

        All roots are drawn in one bulk call, then each RR-set runs the
        per-root :meth:`generate` oracle against the shared stream.
        """
        gen = make_rng(rng)
        roots = self.random_roots(count, rng=gen)
        return [self.generate(rng=gen, root=int(root)) for root in roots]

    def generate_batch(
        self,
        count: int,
        *,
        rng: SeedLike = None,
        roots: Optional[np.ndarray] = None,
        out: Optional[RRSetPool] = None,
    ) -> RRSetPool:
        """Generate ``count`` RR-sets into a flat :class:`RRSetPool`.

        ``roots`` pins the root of each set (overriding ``count``); ``out``
        appends to an existing pool (IMM's top-up phase) instead of
        building a new one.  This base implementation is the per-root
        oracle loop; fast-path subclasses bind
        :func:`chunked_generate_batch` instead, of identical output
        distribution.
        """
        gen = make_rng(rng)
        pool = out if out is not None else RRSetPool(self._graph.num_nodes)
        if roots is None:
            roots = self.random_roots(count, rng=gen)
        else:
            roots = np.asarray(roots, dtype=np.int64)
        for root in roots:
            # Root recorded so implicit-touch pools stay repairable even
            # through this fallback; touch signatures are kernel-only.
            pool.append(self.generate(rng=gen, root=int(root)), root=int(root))
        return pool


def chunked_generate_batch(
    self: RRSetGenerator,
    count: int,
    *,
    rng: SeedLike = None,
    roots: Optional[np.ndarray] = None,
    out: Optional[RRSetPool] = None,
    world: Optional[PossibleWorld] = None,
) -> RRSetPool:
    """Vectorized ``generate_batch`` of the batched kernels (see module
    docstring for the ``_sample_chunk`` contract).

    ``world`` pins one eagerly-sampled possible world shared by every set
    in the batch (fixed-world equivalence tests); by default each set
    samples its own independent world lazily — coins and thresholds
    materialise only where the sweeps touch, exactly like the oracle's
    :class:`~repro.models.sources.WorldSource`, so batch cost tracks total
    RR-set size rather than ``n + m``.
    """
    gen = make_rng(rng)
    graph = self._graph
    n = graph.num_nodes
    pool = out if out is not None else RRSetPool(n)
    if roots is None:
        roots = self.random_roots(count, rng=gen)
    else:
        roots = np.asarray(roots, dtype=np.int64)
    if roots.size == 0:
        return pool
    backend = self.sweep.resolve_backend(n)
    max_chunk = self.sweep.chunk_size(
        n,
        backend,
        state_bytes_per_node=self.state_bytes_per_node,
        max_members=self.max_members,
    )
    # Recorded touches come from the memo; a pinned world flips no coins.
    track = (
        pool.track_touches and world is None and self.touch_mode == "recorded"
    )
    chunk = min(max_chunk, self.probe_chunk)
    start = 0
    while start < roots.size:
        chunk_roots = roots[start : start + chunk]
        b = chunk_roots.size
        start += b
        memo = ChunkCoinMemo()
        nodes, lengths, coins = self._sample_chunk(
            chunk_roots, gen, memo, world, backend
        )
        touch_edges = touch_lengths = None
        if track:
            touch_edges, touch_lengths = touches_from_keys(
                memo.touched_keys(), graph.num_edges, b
            )
        pool.append_flat(
            nodes,
            lengths,
            roots=chunk_roots,
            touch_edges=touch_edges,
            touch_lengths=touch_lengths,
        )
        chunk = int(np.clip(COIN_BUDGET / max(coins / b, 1.0), 1, max_chunk))
    return pool
