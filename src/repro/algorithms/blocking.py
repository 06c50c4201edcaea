"""Influence blocking under mutual competition (paper Appendix B.4).

For competitive products (Q-), cross-monotonicity reverses: adding B-seeds
*decreases* sigma_A (Theorem 3).  The appendix notes that the associated
quantity — how much a B-seed set suppresses A's spread —

    suppression(S_B) = sigma_A(S_A, ∅) - sigma_A(S_A, S_B)   >= 0 in Q-

is the objective of influence *blocking* maximization ([5, 13]), framed
there through cross-submodularity of the decrease.  The paper leaves the
problem out of scope; this module implements the objective so the
appendix discussion is executable.  The query layer answers
:class:`~repro.api.queries.BlockingQuery` with a CELF greedy over this
estimator or, under one-way competition, with pooled RR-Block suppression
sets (:mod:`repro.rrset.rr_block`), orders of magnitude faster (no
approximation guarantee is claimed either way — the appendix's Example 5
shows per-world submodularity can fail in Q-).  The estimator here
remains the Monte-Carlo ground truth both routes are checked against.
"""

from __future__ import annotations

from typing import Iterable

from repro.graph.digraph import DiGraph
from repro.models.comic import simulate
from repro.models.gaps import GAP
from repro.models.sources import WorldSource
from repro.models.spread import SpreadEstimate, _summarize
from repro.rng import SeedLike, make_rng

import numpy as np


def estimate_suppression(
    graph: DiGraph,
    gaps: GAP,
    seeds_a: Iterable[int],
    seeds_b: Iterable[int],
    *,
    runs: int = 1000,
    rng: SeedLike = None,
    paired: bool = True,
) -> SpreadEstimate:
    """Estimate ``sigma_A(S_A, ∅) - sigma_A(S_A, S_B)`` by Monte Carlo.

    With ``paired=True`` both cascades of a run share one possible world
    (common random numbers), as in
    :func:`~repro.models.spread.estimate_boost`.  Positive values mean
    ``S_B`` blocks A; under Q- the expectation is non-negative
    (cross-monotonicity, Theorem 3).
    """
    gen = make_rng(rng)
    seeds_a = list(seeds_a)
    seeds_b = list(seeds_b)
    values = np.empty(runs, dtype=np.float64)
    for i in range(runs):
        if paired:
            world = WorldSource(gen)
            without_b = simulate(graph, gaps, seeds_a, [], source=world)
            with_b = simulate(graph, gaps, seeds_a, seeds_b, source=world)
        else:
            without_b = simulate(graph, gaps, seeds_a, [], rng=gen)
            with_b = simulate(graph, gaps, seeds_a, seeds_b, rng=gen)
        values[i] = without_b.num_a_adopted - with_b.num_a_adopted
    return _summarize(values)

