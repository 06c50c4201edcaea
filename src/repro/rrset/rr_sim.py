"""RR-SIM: RR-set generation for SelfInfMax (paper Algorithm 2, §6.2.1).

Valid regime (Theorem 7): one-way complementarity — B complements A
(``q_{A|∅} <= q_{A|B}``) while A is indifferent to B
(``q_{B|∅} = q_{B|A}``), so B's diffusion is independent of A-seeds
(Lemma 3) and can be resolved *before* reasoning about A.

Three phases over one lazily-sampled world:

* **Phase I** (implicit) — world variables materialise on demand through a
  shared :class:`~repro.models.sources.WorldSource`.
* **Phase II** — forward labeling from the fixed B-seed set: a node is
  B-adopted iff it is a B-seed or reachable from one via live edges through
  nodes with ``alpha_B < q_{B|∅}``.
* **Phase III** — backward BFS from the root: a dequeued node joins the
  RR-set; its in-neighbours are explored only if the node could itself
  adopt A upon being informed (``alpha_A < q_{A|B}`` if B-adopted, else
  ``alpha_A < q_{A|∅}``) — otherwise it could only be A-adopted as a seed.

Batched fast path
-----------------

:meth:`RRSimGenerator._sample_chunk` processes a chunk of independent
worlds at once, replacing the per-edge memoised :class:`WorldSource` calls
with bulk vectorized draws: Phase II labels the B-adopted sets of *all*
chunk worlds with one level-synchronous forward sweep (memoising each
node's ``alpha_B`` outcome in a bit-flag state array), and Phase III runs
the backward searches of all roots with one level-synchronous reverse
sweep.  Edge coins flipped during Phase II are recorded into the chunk's
:class:`~repro.rrset.pool.ChunkCoinMemo`, and Phase III tests its edges
through the same memo (replaying a Phase-II coin, drawing an unseen
edge's), so an edge keeps a single coin across phases exactly as the
memoised oracle does; the memo's keys are also the chunk's edge-touch
record for delta repair.  Coins and thresholds materialise only for the
edges and nodes the sweeps touch, so batch cost tracks total RR-set size
rather than ``n + m``.  Output distribution is identical to
:meth:`generate`; ``tests/rrset/test_batch_equivalence.py`` verifies
fixed-world equality and aggregate frequencies.  The per-root path remains
the correctness oracle (and the fallback for regimes without a kernel).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.errors import RegimeError
from repro.graph.digraph import DiGraph
from repro.models.gaps import GAP
from repro.models.possible_world import PossibleWorld
from repro.models.sources import ITEM_A, ITEM_B, WorldSource
from repro.rng import SeedLike, make_rng
from repro.rrset.base import RRSetGenerator, chunked_generate_batch
from repro.rrset.pool import (
    ChunkCoinMemo,
    expand_csr,
    flatten_members,
    unique_keys,
)
from repro.rrset.sweep import make_flags, make_values

#: Bit flags of the batched Phase-II state matrix: the memoised
#: ``alpha_B < q_B`` outcome (pass/fail) and final B-adoption.
_B_PASS = np.int8(1)
_B_FAIL = np.int8(2)
_B_ADOPTED = np.int8(4)


def check_rr_sim_regime(gaps: GAP) -> None:
    """Raise :class:`RegimeError` unless Theorem 7's conditions hold."""
    if not gaps.is_one_way_complementarity_for_a:
        raise RegimeError(
            "RR-SIM requires one-way complementarity: q_{A|∅} <= q_{A|B} and "
            f"q_{{B|∅}} = q_{{B|A}}; got {gaps}"
        )


def forward_label_b_adopted(
    graph: DiGraph,
    world: WorldSource,
    q_b: float,
    seeds_b: Iterable[int],
) -> set[int]:
    """Phase-II forward labeling: the B-adopted set in this world.

    Seeds adopt unconditionally; other nodes need a live-edge path of
    B-adopted nodes and ``alpha_B < q_{B|∅}``.
    """
    b_adopted: set[int] = set()
    queue: deque[int] = deque()
    for s in seeds_b:
        s = int(s)
        if s not in b_adopted:
            b_adopted.add(s)
            queue.append(s)
    while queue:
        u = queue.popleft()
        targets, probs, eids = graph.out_edges(u)
        for idx in range(targets.size):
            v = int(targets[idx])
            if v in b_adopted:
                continue
            if not world.edge_live(int(eids[idx]), float(probs[idx])):
                continue
            if world.alpha(v, ITEM_B) < q_b:
                b_adopted.add(v)
                queue.append(v)
    return b_adopted


def backward_search_a(
    graph: DiGraph,
    world: WorldSource,
    gaps: GAP,
    root: int,
    b_adopted: set[int],
) -> np.ndarray:
    """Phase-III backward BFS producing the RR-set of ``root``."""
    rr_set: list[int] = []
    visited = {root}
    queue: deque[int] = deque([root])
    while queue:
        u = queue.popleft()
        rr_set.append(u)
        threshold = gaps.q_a_given_b if u in b_adopted else gaps.q_a
        if world.alpha(u, ITEM_A) >= threshold:
            # u can only be A-adopted as a seed; don't explore beyond it.
            continue
        sources, probs, eids = graph.in_edges(u)
        for idx in range(sources.size):
            w = int(sources[idx])
            if w in visited:
                continue
            if world.edge_live(int(eids[idx]), float(probs[idx])):
                visited.add(w)
                queue.append(w)
    return np.asarray(rr_set, dtype=np.int64)



def forward_label_b_batch(
    graph: DiGraph,
    q_b: float,
    frontier: np.ndarray,
    b_state,
    memo: ChunkCoinMemo,
    gen: np.random.Generator,
    world: Optional[PossibleWorld],
    *,
    first_flips: bool = False,
) -> None:
    """Batched Phase II: B-labeling of a chunk of worlds, in place.

    ``frontier`` holds the ``member * n + node`` keys already marked
    B-adopted in ``b_state``, an int8 bit-flag sweep state:
    :data:`_B_PASS` / :data:`_B_FAIL` memoise each node's lazily-drawn
    ``alpha_B < q_B`` outcome and :data:`_B_ADOPTED` marks B-adoption,
    packed so every level costs one gather and one scatter.  Edge coins
    go through ``memo``; ``first_flips`` promises that no coin of this
    sweep was drawn before, so they are recorded without a lookup.
    """
    n, m = graph.num_nodes, graph.num_edges
    out_indptr, out_dst, out_prob, out_eid = graph.csr_out()
    while frontier.size:
        fmember, fnode = np.divmod(frontier, n)
        reps, flat = expand_csr(out_indptr, fnode)
        if flat.size == 0:
            break
        if world is not None:
            live = world.live[out_eid[flat]]
        elif first_flips:
            keys = fmember[reps] * m + out_eid[flat]
            live = gen.random(keys.size) < out_prob[flat]
            memo.record(keys, live)
        else:
            live = memo.lookup_or_draw(
                fmember[reps] * m + out_eid[flat], out_prob[flat], gen
            )
        key = fmember[reps[live]] * n + out_dst[flat[live]]
        if key.size == 0:
            break
        key = unique_keys(key)
        st = b_state.get(key)
        idle = (st & _B_ADOPTED) == 0
        key, st = key[idle], st[idle]
        if key.size == 0:
            break
        if world is None:
            unknown = (st & (_B_PASS | _B_FAIL)) == 0
            if unknown.any():
                passes = gen.random(int(unknown.sum())) < q_b
                st[unknown] |= np.where(passes, _B_PASS, _B_FAIL)
            adopt = (st & _B_PASS) != 0
            b_state.put(key, st | np.where(adopt, _B_ADOPTED, 0))
        else:
            adopt = world.alpha_b[key % n] < q_b
            b_state.put(key[adopt], _B_ADOPTED)
        frontier = key[adopt]


def backward_search_a_batch(
    graph: DiGraph,
    gaps: GAP,
    chunk_roots: np.ndarray,
    b_state,
    memo: ChunkCoinMemo,
    gen: np.random.Generator,
    world: Optional[PossibleWorld],
    backend: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Phase III: the RR-sets of a chunk's roots, packed.

    A dequeued node always joins its RR-set; the sweep expands past it
    only where ``alpha_A`` clears the NLA threshold (each node is dequeued
    at most once per world, so a fresh draw realises the memoised
    ``alpha_A`` exactly).  Edge coins go through ``memo``, replaying any
    coin an earlier phase flipped for the same (world, edge) pair.
    """
    n, m = graph.num_nodes, graph.num_edges
    in_indptr, in_src, in_prob, in_eid = graph.csr_in()
    b = chunk_roots.size
    ids = np.arange(b, dtype=np.int64)
    visited = make_flags(b, n, backend)
    visited.mark(ids * n + chunk_roots)
    member_ids = [ids]
    member_nodes = [chunk_roots]
    fset, fnode = ids, chunk_roots
    while fnode.size:
        b_adopted = (b_state.get(fset * n + fnode) & _B_ADOPTED) != 0
        threshold = np.where(b_adopted, gaps.q_a_given_b, gaps.q_a)
        if world is None:
            grow = gen.random(fnode.size) < threshold
        else:
            grow = world.alpha_a[fnode] < threshold
        gset, gnode = fset[grow], fnode[grow]
        if gnode.size == 0:
            break
        reps, flat = expand_csr(in_indptr, gnode)
        if flat.size == 0:
            break
        if world is None:
            live = memo.lookup_or_draw(
                gset[reps] * m + in_eid[flat], in_prob[flat], gen
            )
        else:
            live = world.live[in_eid[flat]]
        key = visited.mark_new(gset[reps[live]] * n + in_src[flat[live]])
        if key.size == 0:
            break
        fset, fnode = np.divmod(key, n)
        member_ids.append(fset)
        member_nodes.append(fnode)
    return flatten_members(member_nodes, member_ids, b)


class RRSimGenerator(RRSetGenerator):
    """Random RR-set sampler for SelfInfMax (Algorithm 2)."""

    # Phase II flips coins far from the member set (B-region out-edges),
    # so repair needs the explicit per-member edge-touch record.
    touch_mode = "recorded"

    def __init__(self, graph: DiGraph, gaps: GAP, seeds_b: Iterable[int]) -> None:
        super().__init__(graph)
        check_rr_sim_regime(gaps)
        self._gaps = gaps
        self._seeds_b = [int(s) for s in seeds_b]
        for s in self._seeds_b:
            if not 0 <= s < graph.num_nodes:
                raise RegimeError(f"B-seed {s} out of range")
        # Deduped like the oracle's frontier guard: a B-seed listed twice
        # must not expand (and flip coins for) its out-edges twice.
        self._seed_ids = np.unique(np.asarray(self._seeds_b, dtype=np.int64))

    @property
    def gaps(self) -> GAP:
        """The GAP configuration (one-way complementarity)."""
        return self._gaps

    @property
    def seeds_b(self) -> list[int]:
        """The fixed B-seed set."""
        return list(self._seeds_b)

    def generate(
        self, *, rng: SeedLike = None, root: Optional[int] = None, world=None
    ) -> np.ndarray:
        """``world`` injects a fixed possible world (tests/ablations)."""
        gen = make_rng(rng)
        if root is None:
            root = int(gen.integers(0, self._graph.num_nodes))
        if world is None:
            world = WorldSource(gen)
        b_adopted = forward_label_b_adopted(
            self._graph, world, self._gaps.q_b, self._seeds_b
        )
        return backward_search_a(self._graph, world, self._gaps, root, b_adopted)

    # Chunk-driver constants: int8 B-state plus bool visited per (world,
    # node) dense.  Phase II's per-level sweep overhead is paid once per
    # chunk, so RR-SIM wants the largest chunk memory affords — but its
    # coin record grows with the B-region's out-degree per world, known
    # only after sampling: start with a modest probe chunk.
    state_bytes_per_node = 2
    max_members = 8192
    probe_chunk = 256
    generate_batch = chunked_generate_batch

    def _sample_chunk(self, chunk_roots, gen, memo, world, backend):
        """Phases II and III for one chunk (see module docstring)."""
        graph = self._graph
        n = graph.num_nodes
        b = chunk_roots.size
        b_state = make_values(b, n, np.int8, backend)
        seeds = self._seed_ids
        if seeds.size:
            init = np.repeat(np.arange(b, dtype=np.int64), seeds.size) * n
            init += np.tile(seeds, b)
            b_state.put(init, _B_ADOPTED)
            # Each B-adopted node expands once, so every coin is a first
            # flip: the memo's record fast lane, no lookups.
            forward_label_b_batch(
                graph, self._gaps.q_b, init, b_state, memo, gen, world,
                first_flips=True,
            )
        nodes, lengths = backward_search_a_batch(
            graph, self._gaps, chunk_roots, b_state, memo, gen, world, backend
        )
        return nodes, lengths, memo.size
