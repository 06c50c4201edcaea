"""Content-addressed stage cache and input fingerprints.

The pipeline is *resumable*: a stage whose inputs are byte-identical to a
previous run's loads that run's outputs instead of recomputing.  The
discipline mirrors :class:`~repro.store.PoolStore`:

* identity is content, never wall clock — a stage's **key** is a plain
  JSON dict of its knobs plus the fingerprints of everything it reads
  (graph fingerprint, action-log fingerprint, episode-corpus
  fingerprint), and its digest (16-hex SHA-256 of the canonical JSON)
  names the cache directory;
* installs are atomic — outputs are staged into a hidden sibling
  directory and installed by the store's move-aside rename
  (:func:`~repro.store.install.staged_install`), so a crashed writer
  leaves no half-entry a later run could trust, and concurrent writers
  of one key (threads or processes) never collide: the loser returns the
  winner's equivalent entry;
* loads validate — the stored key must equal the requested key and every
  array's checksum must match its manifest entry, else the entry is
  treated as a miss (and overwritten by the recompute).

Fingerprints hash canonical *content*: :func:`fingerprint_log` the
canonical event stream (``repr`` of time/user/item so ``1`` and ``"1"``
differ), :func:`fingerprint_episodes` the stacked activation-time bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import PipelineError, StoreError
from repro.learning.action_log import ActionLog
from repro.pipeline.config import canonical_json, digest_of
from repro.store.install import staged_install

__all__ = ["StageCache", "fingerprint_log", "fingerprint_episodes"]

PathLike = Union[str, os.PathLike]

_META_FILE = "meta.json"


def fingerprint_log(log: ActionLog) -> str:
    """16-hex-char content fingerprint of an action log's canonical events."""
    digest = hashlib.sha256()
    for event in log.canonical_events():
        line = f"{event.action}\t{event.time!r}\t{event.user!r}\t{event.item!r}\n"
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()[:16]


def fingerprint_episodes(episodes: Sequence[np.ndarray]) -> str:
    """16-hex-char content fingerprint of an episode corpus."""
    digest = hashlib.sha256()
    digest.update(f"episodes:{len(episodes)}\n".encode("ascii"))
    for episode in episodes:
        arr = np.ascontiguousarray(episode, dtype=np.int64)
        digest.update(f"{arr.shape}\n".encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


class StageCache:
    """A directory of content-addressed stage outputs.

    Entries live at ``root/<digest>/`` with one ``.npy`` file per output
    array and a ``meta.json`` recording the full key (for validation),
    per-array CRC-32 checksums, and the stage's JSON-serialisable
    ``extra`` diagnostics (so a cache hit can replay the original run's
    convergence record into the debug DB).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PipelineError(f"unusable cache root {self.root}: {exc}") from exc

    @staticmethod
    def digest(key: dict[str, Any]) -> str:
        """The content address of a stage key (16 hex chars)."""
        return digest_of(key)

    def entry_dir(self, key: dict[str, Any]) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / self.digest(key)

    # ------------------------------------------------------------------
    # Load (validating; miss on any mismatch)
    # ------------------------------------------------------------------
    def load(
        self, key: dict[str, Any]
    ) -> Optional[tuple[dict[str, np.ndarray], dict[str, Any]]]:
        """The entry's ``(arrays, extra)`` if present and valid, else None.

        Validation failures (tampered meta, stale key collision, corrupt
        array bytes) are treated as misses, never errors — the pipeline
        recomputes and overwrites, the PoolStore forgiving-load policy.
        """
        entry = self.entry_dir(key)
        meta_path = entry / _META_FILE
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if meta.get("key") != json.loads(canonical_json(key)):
            return None
        arrays: dict[str, np.ndarray] = {}
        columns = meta.get("columns")
        if not isinstance(columns, dict):
            return None
        for name, column in columns.items():
            try:
                arr = np.load(entry / f"{name}.npy", allow_pickle=False)
            except (OSError, ValueError):
                return None
            if zlib.crc32(np.ascontiguousarray(arr).tobytes()) != column.get(
                "crc32"
            ) or list(arr.shape) != column.get("shape"):
                return None
            arrays[name] = arr
        return arrays, meta.get("extra", {})

    # ------------------------------------------------------------------
    # Save (stage → atomic rename)
    # ------------------------------------------------------------------
    def save(
        self,
        key: dict[str, Any],
        arrays: dict[str, np.ndarray],
        extra: dict[str, Any],
    ) -> Path:
        """Install the entry for ``key``; replaces any existing entry."""
        final = self.entry_dir(key)

        def write(staging: Path) -> None:
            columns: dict[str, Any] = {}
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                np.save(staging / f"{name}.npy", arr, allow_pickle=False)
                columns[name] = {
                    "crc32": zlib.crc32(arr.tobytes()),
                    "shape": list(arr.shape),
                }
            meta = {
                "key": json.loads(canonical_json(key)),
                "columns": columns,
                "extra": extra,
            }
            (staging / _META_FILE).write_text(
                json.dumps(meta, sort_keys=True, indent=2), encoding="utf-8"
            )

        try:
            staged_install(final, write)
        except (OSError, StoreError) as exc:
            raise PipelineError(
                f"cannot install cache entry {final}: {exc}"
            ) from exc
        return final
