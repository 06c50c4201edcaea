"""StageCache and input fingerprints: content identity, forgiving loads."""

import json
import sys
import threading

import numpy as np

from repro.learning import ActionLog
from repro.pipeline import StageCache, fingerprint_episodes, fingerprint_log


def small_log(user=1):
    log = ActionLog()
    log.record(user, "a", "inform", 1.0)
    log.record(user, "a", "rate", 2.0)
    return log


class TestFingerprints:
    def test_log_fingerprint_is_content_addressed(self):
        assert fingerprint_log(small_log()) == fingerprint_log(small_log())
        assert fingerprint_log(small_log(1)) != fingerprint_log(small_log(2))

    def test_log_fingerprint_distinguishes_int_and_str_ids(self):
        assert fingerprint_log(small_log(1)) != fingerprint_log(small_log("1"))

    def test_episode_fingerprint_tracks_content(self):
        eps = [np.array([0, 3, -1], dtype=np.int64)]
        same = [np.array([0, 3, -1], dtype=np.int64)]
        other = [np.array([0, 4, -1], dtype=np.int64)]
        assert fingerprint_episodes(eps) == fingerprint_episodes(same)
        assert fingerprint_episodes(eps) != fingerprint_episodes(other)
        assert fingerprint_episodes(eps) != fingerprint_episodes(eps + same)


class TestStageCache:
    KEY = {"stage": "fit_edges", "graph": "abc", "knob": 3}

    def test_round_trip(self, tmp_path):
        cache = StageCache(tmp_path)
        arrays = {"probabilities": np.linspace(0, 1, 7)}
        extra = {"iterations": 4, "converged": True}
        cache.save(self.KEY, arrays, extra)
        hit = cache.load(self.KEY)
        assert hit is not None
        loaded, loaded_extra = hit
        np.testing.assert_array_equal(
            loaded["probabilities"], arrays["probabilities"]
        )
        assert loaded_extra == extra

    def test_miss_on_absent_entry(self, tmp_path):
        assert StageCache(tmp_path).load(self.KEY) is None

    def test_miss_on_key_mismatch(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.save(self.KEY, {}, {})
        # Forge a digest collision: rename the entry to another key's
        # digest; the stored key no longer matches and must be a miss.
        other = {**self.KEY, "knob": 4}
        cache.entry_dir(self.KEY).rename(cache.entry_dir(other))
        assert cache.load(other) is None

    def test_miss_on_corrupt_array_bytes(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.save(self.KEY, {"probabilities": np.ones(5)}, {})
        npy = cache.entry_dir(self.KEY) / "probabilities.npy"
        raw = bytearray(npy.read_bytes())
        raw[-3] ^= 0xFF
        npy.write_bytes(bytes(raw))
        assert cache.load(self.KEY) is None

    def test_miss_on_corrupt_meta(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.save(self.KEY, {}, {})
        (cache.entry_dir(self.KEY) / "meta.json").write_text("{not json")
        assert cache.load(self.KEY) is None

    def test_save_replaces_existing_entry(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.save(self.KEY, {"x": np.zeros(2)}, {"v": 1})
        cache.save(self.KEY, {"x": np.ones(2)}, {"v": 2})
        arrays, extra = cache.load(self.KEY)
        np.testing.assert_array_equal(arrays["x"], np.ones(2))
        assert extra == {"v": 2}
        # no staging or retired droppings left behind
        assert not list(tmp_path.glob(".staging*"))
        assert not list(tmp_path.glob(".trash*"))

    def test_meta_is_human_readable_json(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.save(self.KEY, {"x": np.zeros(3)}, {"note": "hi"})
        meta = json.loads(
            (cache.entry_dir(self.KEY) / "meta.json").read_text()
        )
        assert meta["key"]["stage"] == "fit_edges"
        assert meta["columns"]["x"]["shape"] == [3]


class TestConcurrentSaves:
    def test_same_key_threads_never_collide(self, tmp_path):
        """Regression: threads re-saving one key used to share a
        per-process staging directory and race ``rmtree`` against
        ``os.replace``.  Every save must succeed and the surviving entry
        must load."""
        cache = StageCache(tmp_path)
        key = {"stage": "fit_edges", "graph": "abc"}
        arrays = {"probabilities": np.linspace(0, 1, 64)}
        errors = []
        writers = 3
        start = threading.Barrier(writers)

        def writer():
            start.wait(timeout=30)
            for _ in range(100):
                try:
                    cache.save(key, arrays, {"v": 1})
                except Exception as exc:  # failure capture
                    errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        hit = cache.load(key)
        assert hit is not None
        np.testing.assert_array_equal(
            hit[0]["probabilities"], arrays["probabilities"]
        )
        assert hit[1] == {"v": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            cache.digest(key)
        ]
