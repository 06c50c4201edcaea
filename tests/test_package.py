"""Top-level package surface tests."""

import pytest

import repro
from repro.errors import (
    ActionLogError,
    ConvergenceError,
    EdgeProbabilityError,
    EstimationError,
    ExperimentError,
    GapError,
    GraphError,
    RegimeError,
    ReproError,
    SeedSetError,
)


class TestVersion:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_api_present(self):
        assert callable(repro.simulate)
        assert callable(repro.ComICSession.run)
        assert callable(repro.general_tim)

    def test_one_shot_solvers_removed(self):
        import repro.algorithms

        for name in ("solve_selfinfmax", "solve_compinfmax"):
            assert not hasattr(repro, name), name
        for name in (
            "solve_selfinfmax",
            "solve_compinfmax",
            "greedy_blocking",
            "greedy_multi_item_selfinfmax",
            "round_robin_multi_item",
        ):
            assert not hasattr(repro.algorithms, name), name


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            GraphError,
            EdgeProbabilityError,
            GapError,
            RegimeError,
            SeedSetError,
            ConvergenceError,
            ActionLogError,
            EstimationError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_specialisations(self):
        assert issubclass(EdgeProbabilityError, GraphError)
        assert issubclass(RegimeError, GapError)

    def test_catchable_as_base(self):
        from repro.graph import DiGraph

        with pytest.raises(ReproError):
            DiGraph.from_edges(1, [(0, 5, 1.0)])


class TestSubpackageSurfaces:
    """Every subpackage's __all__ must resolve — guards export drift."""

    @pytest.mark.parametrize("module_name", [
        "repro.graph",
        "repro.models",
        "repro.rrset",
        "repro.algorithms",
        "repro.learning",
        "repro.analysis",
        "repro.datasets",
        "repro.experiments",
    ])
    def test_all_exports_resolve(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module_name}.{name}"

    def test_no_duplicate_exports(self):
        import importlib

        for module_name in (
            "repro.models", "repro.rrset", "repro.algorithms",
            "repro.learning", "repro.analysis",
        ):
            module = importlib.import_module(module_name)
            assert len(module.__all__) == len(set(module.__all__)), module_name
