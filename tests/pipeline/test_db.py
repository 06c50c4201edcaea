"""PipelineDebugDB: schema, recorders/readers, crash evidence."""

import sqlite3
import threading

import pytest

from repro.errors import PipelineError
from repro.pipeline import DEBUG_DB_FILE, SCHEMA_VERSION, PipelineDebugDB


def begin(db, **overrides):
    kwargs = dict(
        config_json="{}",
        config_digest="cfg0",
        graph_fingerprint="g0",
        log_fingerprint="l0",
        episodes_fingerprint=None,
        seed=7,
    )
    kwargs.update(overrides)
    return db.begin_run(**kwargs)


class TestSchema:
    def test_schema_version_pinned(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "debug.sqlite")
        assert db.schema_version() == SCHEMA_VERSION
        db.close()

    def test_wal_journal_mode(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "debug.sqlite")
        db.schema_version()  # force the connection open
        conn = sqlite3.connect(tmp_path / "debug.sqlite")
        mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        conn.close()
        db.close()
        assert mode.lower() == "wal"

    def test_unopenable_file_raises_pipeline_error(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "missing-dir" / "debug.sqlite")
        with pytest.raises(PipelineError, match="cannot open debug database"):
            db.runs()


class TestRunLifecycle:
    def test_begin_finish_round_trip(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        db.finish_run(run_id, status="ok", stages_run=3, stages_skipped=0)
        row = db.run(run_id)
        assert row["status"] == "ok"
        assert row["stages_run"] == 3
        assert row["finished_utc"].endswith("Z")
        db.close()

    def test_crashed_run_leaves_running_row(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        # no finish_run: the evidence row must survive with status=running
        assert db.run(run_id)["status"] == "running"
        assert db.run(run_id)["finished_utc"] is None
        db.close()

    def test_runs_newest_first(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        first, second = begin(db), begin(db)
        ids = [row["run_id"] for row in db.runs()]
        assert ids == [second, first]
        assert db.run(99999) is None
        db.close()


class TestRecorders:
    def test_stage_and_trace_round_trip(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        db.record_stage(
            run_id, "fit_edges", status="ran", input_digest="in0",
            output_digest="out0", wall_s=0.5,
            started_utc="2026-08-08T00:00:00Z",
            detail={"iterations": 3},
        )
        db.record_em_trace(run_id, [-10.0, -8.5, -8.4])
        stages = db.stages(run_id)
        assert len(stages) == 1 and stages[0]["status"] == "ran"
        assert '"iterations": 3' in stages[0]["detail"]
        assert db.em_trace(run_id) == [(0, -10.0), (1, -8.5), (2, -8.4)]
        db.close()

    def test_gap_and_query_round_trip(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        db.record_gap_fit(
            run_id, item_a="a", item_b="b", parameter="q_a",
            value=0.31, halfwidth=0.02, ci_lo=0.29, ci_hi=0.33,
            samples=500, true_value=0.3, inside_ci=True,
        )
        db.record_query(
            run_id, 0, objective="selfinfmax", query_json="{}",
            seeds=[4, 2], estimate=12.5, method="rr-greedy",
            engine="imm", rr_sets_sampled=1000, degraded=False,
            wall_s=0.1,
        )
        [gap] = db.gap_fits(run_id)
        assert gap["parameter"] == "q_a" and gap["inside_ci"] == 1
        [query] = db.query_results(run_id)
        assert query["seeds_json"] == "[4, 2]" and query["degraded"] == 0
        db.close()

    def test_edge_fits_row_order_is_edge_id(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        db.record_edge_fits(
            run_id, sources=[0, 1], targets=[1, 2],
            probabilities=[0.5, 0.25], observations=[10, 3],
        )
        conn = sqlite3.connect(tmp_path / "d.sqlite")
        rows = conn.execute(
            "SELECT edge_id, source, target, probability, observations"
            " FROM edge_fits ORDER BY edge_id"
        ).fetchall()
        conn.close()
        assert rows == [(0, 0, 1, 0.5, 10), (1, 1, 2, 0.25, 3)]
        db.close()


class TestThreading:
    def test_connections_are_thread_local(self, tmp_path):
        db = PipelineDebugDB(tmp_path / "d.sqlite")
        run_id = begin(db)
        errors = []

        def reader():
            try:
                assert db.run(run_id)["seed"] == 7
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        db.close()


def test_db_file_name_constant():
    assert DEBUG_DB_FILE == "pipeline_debug.sqlite"
