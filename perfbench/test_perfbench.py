"""Tiny-scale self-test of the benchmark (``python3 -m pytest -q perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Run the benchmark at the tiny scale, without the slow host probe."""
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    monkeypatch.setattr(run, "host_info", lambda: {"cpu": "self-test"})


def _run(capsys, workload: str, *, trace: int) -> tuple[dict, dict]:
    """``(detail, result)`` of one run."""
    code = run.main(
        [
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.3",
            "--trace", str(trace),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_emits_the_end_to_end_metrics(capsys, tiny, workload):
    _, result = _run(capsys, workload, trace=0)
    _check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _raw_targets() -> list:
    return [
        spans._raw_attribute(owner, attribute)
        for owner, attribute, _, _ in spans.default_targets()
    ]


def test_traced_run_emits_the_per_layer_metrics_and_restores_the_program(
    capsys, tiny
):
    before = _raw_targets()
    # churn_http reaches every layer: service, api, rrset, store, graph.
    detail, result = _run(capsys, "churn_http", trace=1)
    _check_result(result, SPEC["per_layer"])
    assert all(a is b for a, b in zip(_raw_targets(), before))
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    for name in ("service.http.ms", "api.run.ms", "rrset.repair.ms",
                 "store.load.calls", "graph.apply_delta.ms"):
        assert metrics[name] > 0, name
    # Every traced GraphDelta.apply is the daemon's: one per session delta,
    # none from the benchmark building its deltas, none from priming.
    with (ROOT / detail["spans_file"]).open(encoding="utf-8") as dump:
        names = Counter(json.loads(line)["name"] for line in dump)
    assert detail["traced"]["writes"] > 0
    assert names["graph.apply_delta"] == names["api.apply_delta"] > 0

    # An exception inside the traced phase must not leave wrappers behind.
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert _raw_targets()[0] is not before[0]
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_raw_targets(), before))


def test_peak_memory_window_restarts_at_the_reset():
    ballast = bytearray(64 << 20)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # touch every page
    held = workloads.peak_rss_mb()
    del ballast
    workloads.reset_peak_rss()
    assert workloads.peak_rss_mb() < held - 32


def test_host_info_is_recorded():
    info = run.host_info()
    assert info["logical_cpus"] >= 1 and info["python"]
    assert run.calibration_rate() > 0


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        spans.Span(1, None, "root", 0.0, 10.0),
        spans.Span(2, 1, "a", 1.0, 3.0),
        spans.Span(3, 1, "b", 2.0, 5.0),  # overlaps a: union [1, 5]
        spans.Span(4, 1, "c", 8.0, 12.0),  # clipped to the parent's end
        spans.Span(5, 2, "leaf", 1.5, 2.5),  # grandchild: counts for a only
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 4.0, 2: 1.0, 3: 3.0, 4: 4.0, 5: 1.0})
    rows = spans.summarize(tree)
    assert rows["root"]["self_s"] == pytest.approx(4.0)
    assert rows["a"]["total_s"] == pytest.approx(2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_http",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
