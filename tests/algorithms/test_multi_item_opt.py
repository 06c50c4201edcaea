"""Tests for k-item seed selection and the extended MultiItemGaps helpers."""

import numpy as np
import pytest

from repro.errors import GapError, QueryError, SeedSetError
from repro.graph import path_digraph, star_digraph
from repro.models import (
    GAP,
    MultiItemGaps,
    estimate_multi_item_spread,
)
from repro.api import ComICSession, MultiItemQuery


def focal_greedy(graph, gaps, item, fixed_seed_sets, k, *, rng=None, **query):
    """Extend ``item``'s seed set by ``k`` through the session API."""
    session = ComICSession(graph, multi_item_gaps=gaps, rng=rng)
    fixed = tuple(tuple(s) for s in fixed_seed_sets)
    return session.run(
        MultiItemQuery(budget=k, item=item, fixed_seed_sets=fixed, **query)
    ).seeds


def round_robin(graph, gaps, budget, *, rng=None, **query):
    """Round-robin allocation of ``budget`` seeds through the session API."""
    session = ComICSession(graph, multi_item_gaps=gaps, rng=rng)
    return session.run(MultiItemQuery(budget=budget, **query)).seed_sets


class TestAdditiveConstructor:
    def test_complementary_table(self):
        gaps = MultiItemGaps.additive(3, base=0.3, boost_per_item=0.2)
        assert gaps.q(0, frozenset()) == pytest.approx(0.3)
        assert gaps.q(0, frozenset({1})) == pytest.approx(0.5)
        assert gaps.q(0, frozenset({1, 2})) == pytest.approx(0.7)
        assert gaps.is_mutually_complementary
        assert not gaps.is_mutually_competitive

    def test_competitive_table(self):
        gaps = MultiItemGaps.additive(3, base=0.8, boost_per_item=-0.3)
        assert gaps.q(1, frozenset({0, 2})) == pytest.approx(0.2)
        assert gaps.is_mutually_competitive

    def test_clipping(self):
        gaps = MultiItemGaps.additive(4, base=0.9, boost_per_item=0.5)
        assert gaps.q(0, frozenset({1, 2, 3})) == 1.0
        gaps = MultiItemGaps.additive(4, base=0.2, boost_per_item=-0.5)
        assert gaps.q(0, frozenset({1, 2, 3})) == 0.0

    def test_uniform_is_both_monotone(self):
        gaps = MultiItemGaps.uniform(3, 0.5)
        assert gaps.is_mutually_complementary
        assert gaps.is_mutually_competitive  # constant tables satisfy both

    def test_pairwise_embedding_monotonicity_matches_gap(self):
        q_plus = GAP(q_a=0.2, q_a_given_b=0.8, q_b=0.3, q_b_given_a=0.9)
        multi = MultiItemGaps.from_pairwise_gap(q_plus)
        assert multi.is_mutually_complementary
        q_minus = GAP(q_a=0.8, q_a_given_b=0.2, q_b=0.9, q_b_given_a=0.3)
        assert MultiItemGaps.from_pairwise_gap(q_minus).is_mutually_competitive


class TestEstimateSpread:
    def test_deterministic_chain(self):
        graph = path_digraph(4, probability=1.0)
        gaps = MultiItemGaps.uniform(2, 1.0)
        spreads = estimate_multi_item_spread(graph, gaps, [[0], []], runs=20, rng=1)
        assert spreads[0] == pytest.approx(4.0)
        assert spreads[1] == pytest.approx(0.0)

    def test_complementarity_raises_spread(self):
        graph = star_digraph(30, probability=1.0)
        comp = MultiItemGaps.additive(2, base=0.2, boost_per_item=0.7)
        alone = estimate_multi_item_spread(graph, comp, [[0], []], runs=400, rng=2)
        helped = estimate_multi_item_spread(graph, comp, [[0], [0]], runs=400, rng=2)
        assert helped[0] > alone[0] * 1.5

    def test_three_items_all_tracked(self):
        graph = star_digraph(10, probability=1.0)
        gaps = MultiItemGaps.uniform(3, 0.5)
        spreads = estimate_multi_item_spread(
            graph, gaps, [[0], [0], [0]], runs=200, rng=3
        )
        assert spreads.shape == (3,)
        # Symmetric seeding: all items spread equally (within MC noise).
        assert np.ptp(spreads) < 1.5

    def test_runs_validated(self):
        graph = path_digraph(2)
        with pytest.raises(ValueError):
            estimate_multi_item_spread(
                graph, MultiItemGaps.uniform(2, 0.5), [[0], []], runs=0
            )


class TestGreedyFocalItem:
    def test_hub_found_on_star(self):
        graph = star_digraph(20, probability=1.0)
        gaps = MultiItemGaps.uniform(2, 0.8)
        seeds = focal_greedy(graph, gaps, 0, [[], []], 1, runs=40, rng=4)
        assert seeds == [0]

    def test_item_and_seed_set_validation(self):
        graph = star_digraph(5)
        gaps = MultiItemGaps.uniform(2, 0.5)
        with pytest.raises(SeedSetError):
            focal_greedy(graph, gaps, 2, [[], []], 1)
        with pytest.raises(SeedSetError):
            focal_greedy(graph, gaps, 0, [[]], 1)
        with pytest.raises(QueryError):
            focal_greedy(graph, gaps, 0, [[], []], -1)

    def test_candidates_respected(self):
        graph = star_digraph(8, probability=1.0)
        gaps = MultiItemGaps.uniform(2, 0.9)
        seeds = focal_greedy(
            graph, gaps, 0, [[], []], 2, runs=20, rng=5, candidates=(3, 4, 5)
        )
        assert set(seeds) <= {3, 4, 5}

    def test_complementary_items_pull_seeds_together(self):
        """With strong complementarity and item 1 seeded at one hub of a
        two-hub graph, item 0's greedy seed should co-locate at that hub."""
        from repro.graph import DiGraph

        edges = [(0, v) for v in range(2, 12)] + [(1, v) for v in range(12, 22)]
        graph = DiGraph.from_edges(22, edges, default_probability=1.0)
        gaps = MultiItemGaps.additive(2, base=0.1, boost_per_item=0.9)
        seeds = focal_greedy(
            graph, gaps, 0, [[], [0]], 1, runs=60, rng=6, candidates=(0, 1)
        )
        assert seeds == [0]


class TestRoundRobin:
    def test_budget_split_across_items(self):
        graph = star_digraph(15, probability=1.0)
        gaps = MultiItemGaps.uniform(2, 0.7)
        sets = round_robin(
            graph, gaps, 4, runs=20, rng=7, candidates=(0, 1, 2, 3, 4)
        )
        assert len(sets) == 2
        assert len(sets[0]) == 2 and len(sets[1]) == 2
        # The hub is the first pick for both items.
        assert sets[0][0] == 0 and sets[1][0] == 0

    def test_zero_budget(self):
        graph = star_digraph(5)
        sets = round_robin(graph, MultiItemGaps.uniform(3, 0.5), 0, runs=5, rng=8)
        assert sets == [[], [], []]

    def test_negative_budget_rejected(self):
        graph = star_digraph(5)
        with pytest.raises(QueryError):
            round_robin(graph, MultiItemGaps.uniform(2, 0.5), -1)
