"""Tests for the RRSetGenerator base interface and the chunk driver."""

import numpy as np
import pytest

from repro.api import (
    BlockingQuery,
    ComICSession,
    CompInfMaxQuery,
    EngineConfig,
    SelfInfMaxQuery,
)
from repro.graph import path_digraph, power_law_digraph, weighted_cascade_probabilities
from repro.models import GAP
from repro.models.lt import normalize_lt_weights
from repro.models.possible_world import sample_possible_world
from repro.rng import make_rng
from repro.rrset import (
    RRBlockGenerator,
    RRCimGenerator,
    RRICGenerator,
    RRLTGenerator,
    RRSetGenerator,
    RRSimGenerator,
    RRSimPlusGenerator,
    RRSimProductGenerator,
)
from repro.rrset.base import chunked_generate_batch

BATCHED_KERNELS = (
    RRICGenerator,
    RRLTGenerator,
    RRSimGenerator,
    RRSimPlusGenerator,
    RRCimGenerator,
    RRBlockGenerator,
)

ONE_WAY = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
CIM = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=1.0)
BLOCK = GAP(q_a=0.7, q_a_given_b=0.1, q_b=0.8, q_b_given_a=0.8)


class TestBaseInterface:
    def test_random_root_in_range(self):
        generator = RRICGenerator(path_digraph(7))
        gen = make_rng(0)
        roots = {generator.random_root(gen) for _ in range(200)}
        assert roots <= set(range(7))
        assert len(roots) > 3  # actually random

    def test_generate_many_count_and_types(self):
        generator = RRICGenerator(path_digraph(5))
        sets = generator.generate_many(7, rng=1)
        assert len(sets) == 7
        for rr in sets:
            assert isinstance(rr, np.ndarray)
            assert rr.dtype == np.int64

    def test_generate_many_deterministic_given_seed(self):
        generator = RRICGenerator(path_digraph(5, probability=0.5))
        first = [sorted(rr.tolist()) for rr in generator.generate_many(10, rng=3)]
        second = [sorted(rr.tolist()) for rr in generator.generate_many(10, rng=3)]
        assert first == second

    def test_graph_property(self):
        graph = path_digraph(4)
        assert RRICGenerator(graph).graph is graph


class TestChunkDriverBinding:
    @pytest.mark.parametrize("cls", BATCHED_KERNELS, ids=lambda c: c.__name__)
    def test_kernel_binds_driver_in_own_dict(self, cls):
        # Tracers patch ``owner.__dict__["generate_batch"]``, so the
        # binding must live on each kernel class itself.
        assert cls.__dict__["generate_batch"] is chunked_generate_batch

    def test_product_regime_keeps_oracle_loop(self):
        assert "generate_batch" not in RRSimProductGenerator.__dict__
        assert (
            RRSimProductGenerator.generate_batch
            is RRSetGenerator.generate_batch
        )

    def test_pool_info_reports_vectorized_kernels(self):
        graph = weighted_cascade_probabilities(power_law_digraph(120, rng=4))
        config = EngineConfig(theta_override=200)
        session = ComICSession(graph, ONE_WAY, config=config, rng=0)
        session.run(SelfInfMaxQuery(seeds_b=(0,), k=1, use_rr_sim_plus=False))
        session.run(SelfInfMaxQuery(seeds_b=(0,), k=1))
        session.run(CompInfMaxQuery(seeds_a=(0,), k=1, gaps=CIM))
        session.run(BlockingQuery(seeds_a=(0,), k=1, gaps=BLOCK, method="rr"))
        kernels = {info.regime: info.batch_kernel for info in session.pool_info()}
        assert kernels == {
            "rr-sim": "vectorized",
            "rr-sim+": "vectorized",
            "rr-cim": "vectorized",
            "rr-block": "vectorized",
        }

    def test_rr_lt_rejects_fixed_world(self):
        graph = normalize_lt_weights(power_law_digraph(60, rng=2))
        world = sample_possible_world(graph, rng=0)
        with pytest.raises(ValueError, match="fixed-world"):
            RRLTGenerator(graph).generate_batch(5, rng=0, world=world)
