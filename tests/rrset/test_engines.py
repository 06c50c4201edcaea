"""Tests for the TIM/IMM engine dispatch and its use by the query layer."""

import pytest

from repro.graph import power_law_digraph, star_digraph
from repro.models import GAP
from repro.rrset import (
    IMMOptions,
    IMMResult,
    RRICGenerator,
    TIMOptions,
    TIMResult,
    run_seed_selection,
)
from repro.rrset.engines import imm_options_from_tim
from repro.api import ComICSession, CompInfMaxQuery, EngineConfig, SelfInfMaxQuery


@pytest.fixture(scope="module")
def graph():
    return power_law_digraph(
        200, exponent=2.16, average_degree=5.0, probability=0.2, rng=77
    )


class TestDispatch:
    def test_tim_engine_returns_tim_result(self, graph):
        result = run_seed_selection(
            RRICGenerator(graph), 3,
            engine="tim", options=TIMOptions(theta_override=500), rng=1,
        )
        assert isinstance(result, TIMResult)
        assert len(result.seeds) == 3

    def test_imm_engine_returns_imm_result(self, graph):
        result = run_seed_selection(
            RRICGenerator(graph), 3,
            engine="imm", options=TIMOptions(max_rr_sets=1500), rng=1,
        )
        assert isinstance(result, IMMResult)
        assert len(result.seeds) == 3

    def test_unknown_engine_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown engine"):
            run_seed_selection(RRICGenerator(graph), 2, engine="celf")

    def test_explicit_imm_options_win(self, graph):
        result = run_seed_selection(
            RRICGenerator(graph), 2,
            engine="imm",
            options=TIMOptions(max_rr_sets=50_000),
            imm_options=IMMOptions(max_rr_sets=300),
            rng=2,
        )
        assert result.theta <= 300

    def test_option_mapping(self):
        tim = TIMOptions(epsilon=0.25, ell=2.0, max_rr_sets=123, min_rr_sets=7)
        imm = imm_options_from_tim(tim)
        assert imm.epsilon == 0.25
        assert imm.ell == 2.0
        assert imm.max_rr_sets == 123
        assert imm.min_rr_sets == 7


class TestSolverEngines:
    """Engine choice reaches the solvers: IMM answers carry ``IMMResult``s
    under ``raw.tim_results``."""

    def test_selfinfmax_imm_submodular_path(self, graph):
        gaps = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.5, q_b_given_a=0.5)
        session = ComICSession(
            graph, gaps, config=EngineConfig(engine="imm", max_rr_sets=1500), rng=4
        )
        result = session.run(SelfInfMaxQuery(seeds_b=(0, 1), k=3)).raw
        assert result.method == "submodular"
        assert isinstance(result.tim_results["sigma"], IMMResult)
        assert len(result.seeds) == 3

    def test_selfinfmax_imm_sandwich_path(self, graph):
        gaps = GAP(q_a=0.3, q_a_given_b=0.8, q_b=0.3, q_b_given_a=0.9)
        session = ComICSession(
            graph, gaps, config=EngineConfig(engine="imm", max_rr_sets=800), rng=5
        )
        result = session.run(
            SelfInfMaxQuery(seeds_b=(0, 1), k=2, evaluation_runs=30)
        ).raw
        assert result.method == "sandwich"
        assert isinstance(result.tim_results["nu"], IMMResult)

    def test_compinfmax_imm_paths(self, graph):
        gaps = GAP(q_a=0.2, q_a_given_b=0.9, q_b=0.4, q_b_given_a=1.0)
        session = ComICSession(
            graph, gaps, config=EngineConfig(engine="imm", max_rr_sets=800), rng=6
        )
        result = session.run(CompInfMaxQuery(seeds_a=(0, 1), k=2)).raw
        assert result.method == "submodular"
        assert isinstance(result.tim_results["sigma"], IMMResult)

    def test_engines_agree_on_easy_instance(self):
        # A star hub is unambiguous: both engines must find it.
        graph = star_digraph(30)
        gaps = GAP(q_a=0.5, q_a_given_b=0.9, q_b=0.5, q_b_given_a=0.5)
        for engine in ("tim", "imm"):
            session = ComICSession(
                graph, gaps,
                config=EngineConfig(engine=engine, max_rr_sets=1500), rng=7,
            )
            result = session.run(SelfInfMaxQuery(seeds_b=(5,), k=1))
            assert result.seeds == [0], engine
