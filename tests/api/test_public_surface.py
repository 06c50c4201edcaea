"""API-surface snapshot: ``repro.api.__all__`` changes must be deliberate.

If this test fails you probably added, renamed or removed a public name in
:mod:`repro.api`.  That can be the right thing to do — update the snapshot
here *and* the docs (README migration table, DESIGN.md API-layer section)
in the same change.
"""

import repro.api

EXPECTED_ALL = [
    "BlockingQuery",
    "ComICSession",
    "CompInfMaxQuery",
    "CompInfMaxResult",
    "DeltaError",
    "DeltaReport",
    "EMResult",
    "EngineConfig",
    "GraphDelta",
    "InfluenceResult",
    "InvalidationReason",
    "LearnedGap",
    "MC_ENGINE",
    "MultiItemQuery",
    "ObjectiveSpec",
    "PipelineConfig",
    "PipelineDebugDB",
    "PipelineError",
    "PipelineResult",
    "PoolInfo",
    "PoolKey",
    "SelfInfMaxQuery",
    "SelfInfMaxResult",
    "SessionStats",
    "StageRecord",
    "generator_factory",
    "get_spec",
    "known_objectives",
    "known_regimes",
    "query_from_dict",
    "query_from_json",
    "register",
    "register_regime",
    "resolve",
    "run_pipeline",
    "spec_for_query",
    "unregister",
    "unregister_regime",
]


def test_all_is_pinned():
    assert sorted(repro.api.__all__) == EXPECTED_ALL


def test_every_name_resolves():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_top_level_reexports():
    import repro

    for name in (
        "ComICSession",
        "EngineConfig",
        "InfluenceResult",
        "SelfInfMaxQuery",
        "CompInfMaxQuery",
        "BlockingQuery",
        "MultiItemQuery",
    ):
        assert getattr(repro, name) is getattr(repro.api, name)
        assert name in repro.__all__


def test_builtin_objectives_registered():
    assert repro.api.known_objectives() == (
        "blocking",
        "compinfmax",
        "multi_item",
        "selfinfmax",
    )
    assert repro.api.known_regimes() == (
        "rr-block", "rr-cim", "rr-ic", "rr-sim", "rr-sim+"
    )
