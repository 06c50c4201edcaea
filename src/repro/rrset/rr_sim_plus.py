"""RR-SIM+: scope-limited forward labeling (paper Algorithm 3, §6.2.2).

RR-SIM spends ``EPT_F`` edge tests on forward labeling from the B-seeds even
when none of that region can reach the root.  RR-SIM+ first runs an
*unconditional* backward BFS from the root over live edges, collecting the
set ``T1`` of nodes that could possibly matter; only if ``T1`` contains
B-seeds does it run the (residual) forward labeling, starting from
``T1 ∩ S_B`` alone.  A second backward BFS — identical to RR-SIM's
Phase III and confined to ``T1`` by construction (it expands along exactly
the live in-edges the first pass already certified) — emits the RR-set.

Lemma 7 of the paper proves the B-adoption status of every node the second
pass can see agrees with RR-SIM's, hence the two generators sample the same
RR-set distribution; a statistical test asserts this.

Batched fast path
-----------------

:meth:`RRSimPlusGenerator._sample_chunk` keeps Algorithm 3's structure at
chunk scale: one level-synchronous *unconditional* reverse sweep from all
chunk roots (recording every edge coin it flips into a
:class:`~repro.rrset.pool.ChunkCoinMemo`), then — only for the chunk
members whose reachable set actually touched a B-seed — a residual
Phase-II forward sweep seeded from exactly the touched (member, seed)
pairs, and finally RR-SIM's Phase-III backward sweep.  Phases II and III
replay the earlier sweeps' coins through the shared memo (the batched
counterpart of the oracle's memoised ``WorldSource``), so the output
distribution matches :meth:`generate` exactly — and, by Lemma 7,
RR-SIM's.  Chunks adapt to the observed memo load as in RR-SIM.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.models.gaps import GAP
from repro.models.sources import WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator, chunked_generate_batch
from repro.rrset.pool import expand_csr
from repro.rrset.rr_sim import (
    _B_ADOPTED,
    backward_search_a,
    backward_search_a_batch,
    check_rr_sim_regime,
    forward_label_b_adopted,
    forward_label_b_batch,
)
from repro.rrset.sweep import make_flags, make_values


class RRSimPlusGenerator(RRSetGenerator):
    """Random RR-set sampler for SelfInfMax (Algorithm 3)."""

    # Every liveness coin flows through the chunk memo, whose key record
    # is exactly the per-member edge-touch signature repair needs.
    touch_mode = "recorded"

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_b: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_sim_regime(gaps)
        self._gaps = gaps
        self._seeds_b = [int(s) for s in seeds_b]
        self._seeds_b_set = set(self._seeds_b)
        self._seed_ids = np.unique(np.asarray(self._seeds_b, dtype=np.int64))

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (one-way complementarity)."""
        return self._gaps

    @property
    def seeds_b(self) -> list[int]:
        """The fixed B-seed set."""
        return list(self._seeds_b)

    def _first_backward_bfs(
        self, world: WorldSource, root: int
    ) -> set[int]:
        """Unconditional reverse reachability from ``root`` over live edges."""
        graph = self._graph
        visited = {root}
        queue: deque[int] = deque([root])
        while queue:
            u = queue.popleft()
            sources, probs, eids = graph.in_edges(u)
            for idx in range(sources.size):
                w = int(sources[idx])
                if w in visited:
                    continue
                if world.edge_live(int(eids[idx]), float(probs[idx])):
                    visited.add(w)
                    queue.append(w)
        return visited

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations)."""
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        t1 = self._first_backward_bfs(world, root)
        touched_seeds = t1 & self._seeds_b_set
        if touched_seeds:
            # Residual forward labeling from the in-scope B-seeds only; the
            # world source memoises, so re-tested edges stay consistent.
            b_adopted = forward_label_b_adopted(
                self._graph, world, self._gaps.q_b, sorted(touched_seeds)
            )
        else:
            b_adopted = set()
        return backward_search_a(self._graph, world, self._gaps, root, b_adopted)

    # ------------------------------------------------------------------
    # Batched fast path (see module docstring)
    # ------------------------------------------------------------------
    # Chunk-driver constants: two bool visited maps plus the int8 B-state
    # per (member, node) dense; chunks re-size from the memo load.
    state_bytes_per_node = 3
    max_members = 8192
    probe_chunk = 256
    generate_batch = chunked_generate_batch

    def _sample_chunk(self, chunk_roots, gen, memo, world, backend):
        """Algorithm 3 for one chunk of worlds (see module docstring)."""
        graph = self._graph
        n, m = graph.num_nodes, graph.num_edges
        in_indptr, in_src, in_prob, in_eid = graph.csr_in()
        b = chunk_roots.size
        ids = np.arange(b, dtype=np.int64)
        root_keys = ids * n + chunk_roots
        # Sweep 1: unconditional reverse reachability from each root (the
        # oracle's T1), recording every liveness coin it flips — each
        # target node is dequeued at most once, so each in-edge is a
        # first flip.
        visited = make_flags(b, n, backend)
        visited.mark(root_keys)
        frontier = root_keys
        while frontier.size:
            fmember, fnode = np.divmod(frontier, n)
            reps, flat = expand_csr(in_indptr, fnode)
            if flat.size == 0:
                break
            if world is None:
                keys = fmember[reps] * m + in_eid[flat]
                live = gen.random(keys.size) < in_prob[flat]
                memo.record(keys, live)
            else:
                live = world.live[in_eid[flat]]
            tkeys = visited.mark_new(
                fmember[reps[live]] * n + in_src[flat[live]]
            )
            if tkeys.size == 0:
                break
            frontier = tkeys
        # Residual forward labeling, only where T1 saw a B-seed (the point
        # of Algorithm 3: skip EPT_F when B cannot matter).  Sweep 1
        # already flipped the coins inside each member's T1, so these
        # re-tests replay through the memo.
        b_state = make_values(b, n, np.int8, backend)
        seeds = self._seed_ids
        if seeds.size:
            seed_keys = ids[:, None] * n + seeds[None, :]
            init = seed_keys[visited.get(seed_keys)]
            if init.size:
                b_state.put(init, _B_ADOPTED)
                forward_label_b_batch(
                    graph, self._gaps.q_b, init, b_state, memo, gen, world
                )
        # Sweep 2: RR-SIM's Phase III; confined to T1 by construction (it
        # expands along exactly the live in-edges sweep 1 already
        # certified, replayed through the memo).
        nodes, lengths = backward_search_a_batch(
            graph, self._gaps, chunk_roots, b_state, memo, gen, world, backend
        )
        return nodes, lengths, memo.size
