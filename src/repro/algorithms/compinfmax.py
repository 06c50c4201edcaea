"""Theorem 2: the provably optimal CompInfMax special case.

CompInfMax (Problem 2) picks ``k`` B-seeds maximising the boost
``sigma_A(S_A, S_B) - sigma_A(S_A, ∅)``; the query layer answers it
(:class:`~repro.api.queries.CompInfMaxQuery`, GeneralTIM/IMM over RR-CIM
with one-sided Sandwich Approximation when ``q_{B|A} < 1``).  When
``q_{B|∅} = 1`` and ``k >= |S_A|`` no sampling is needed at all:
:func:`theorem2_optimal_b_seeds` copies the A-seeds and pads arbitrarily.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SeedSetError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng


def theorem2_optimal_b_seeds(
    graph: DiGraph,
    seeds_a: Sequence[int],
    k: int,
    *,
    rng: SeedLike = None,
) -> list[int]:
    """Optimal B-seeds when ``q_{B|∅} = 1`` and ``k >= |S_A|`` (Theorem 2).

    Returns ``S_A`` plus ``k - |S_A|`` arbitrary (here: random) extra nodes.
    """
    seeds_a = [int(s) for s in dict.fromkeys(int(s) for s in seeds_a)]
    if k < len(seeds_a):
        raise SeedSetError(
            f"Theorem 2 needs k >= |S_A|; got k={k}, |S_A|={len(seeds_a)}"
        )
    gen = make_rng(rng)
    chosen = list(seeds_a)
    remaining = [v for v in range(graph.num_nodes) if v not in set(chosen)]
    extra = k - len(chosen)
    if extra > len(remaining):
        raise SeedSetError(f"cannot select {k} seeds from {graph.num_nodes} nodes")
    if extra:
        picked = gen.choice(len(remaining), size=extra, replace=False)
        chosen.extend(remaining[int(i)] for i in picked)
    return chosen

