"""Shared sweep engine: chunk state backends for the batched RR kernels.

Every batched RR-set kernel (RR-IC, RR-LT, RR-SIM, RR-SIM+, RR-CIM,
RR-Block) runs the same level-synchronous machinery: flat ``(chunk
member, node) -> member * n + node`` keys over per-chunk state arrays
(visited bitmaps, B-state bit flags, RR-CIM's uint8 bitfield),
``expand_csr`` frontier fan-outs, bulk coin draws and ``unique_keys``
dedup.  Before this module each kernel owned a private copy of that
machinery with a hardcoded dense state layout: one ``numpy`` array of
``chunk * num_nodes`` entries per state, so the chunk size is
``state_budget // num_nodes`` and collapses to single-digit members on
multi-million-node graphs — exactly where batching matters most.

This module extracts the shared pieces behind two interchangeable state
backends:

* **dense** — the existing flat array.  O(1) gathers/scatters, memory
  ``chunk * num_nodes`` bytes per state; right for small graphs where
  the array fits comfortably and sweeps touch a large fraction of it.
* **sparse** — a sorted ``member * n + node`` key array (plus a parallel
  value column for non-boolean states), the same layout as
  :class:`~repro.rrset.pool.ChunkCoinMemo`.  Gathers are bulk
  ``searchsorted`` lookups and updates are two-way merges, so memory
  scales with the nodes a chunk's sweeps actually *touch* rather than
  with ``chunk * num_nodes`` — on a million-node graph a chunk of
  thousands of members costs megabytes instead of gigabytes.

Backends are *operation-equivalent*: both resolve the same test-and-set
(:meth:`FlagState.mark_new`), gather and scatter semantics, and neither
consumes randomness, so a kernel produces bit-identical output under
either backend (``tests/rrset/test_sweep.py`` pins this across all six
regimes).  :class:`SweepConfig` selects the backend automatically by
node count (``auto``), centralizes the per-chunk state budget that used
to be a per-kernel hardcoded constant, and warns instead of silently
degrading when a dense chunk collapses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.rrset.pool import merge_sorted, unique_keys

#: default per-chunk state budget (bytes) shared by every kernel — the
#: one knob that replaces the per-kernel ``16 << 20`` / ``~64MB``
#: constants.  Overridable via ``EngineConfig.chunk_state_bytes``.
DEFAULT_CHUNK_STATE_BYTES = 16 << 20

#: node count at which ``auto`` switches from dense to sparse state.
#: Above it a dense chunk within the default budget would hold only a
#: few members (16 at one byte per (member, node)), while RR sweeps
#: touch a vanishing fraction of the graph — the sparse regime.
DEFAULT_SPARSE_NODES_THRESHOLD = 1 << 19

#: a dense chunk below this many members is considered degenerate: the
#: per-level numpy overhead is no longer amortised and the kernel emits
#: a :class:`RuntimeWarning` recommending the sparse backend.
DEGENERATE_DENSE_CHUNK = 16

_BACKENDS = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class SweepConfig:
    """Chunk-state policy of one generator's batched sweeps.

    ``chunk_state_bytes`` budgets the per-chunk dense state (all of a
    kernel's simultaneous ``chunk * num_nodes`` arrays together);
    ``state_backend`` picks the backend (``"auto"`` selects sparse at or
    above ``sparse_nodes_threshold`` nodes).  Frozen and picklable, so
    it rides along when :class:`~repro.parallel.ParallelEngine` ships
    generator replicas to worker processes.
    """

    chunk_state_bytes: int = DEFAULT_CHUNK_STATE_BYTES
    state_backend: str = "auto"
    sparse_nodes_threshold: int = DEFAULT_SPARSE_NODES_THRESHOLD
    #: optional hard cap on members per chunk, below every kernel's own
    #: ``max_members``.  The chunk schedule determines the order coins
    #: are drawn in, so pinning both backends to one cap makes their
    #: outputs bit-comparable — the equality leg of the scale benchmark
    #: and the fixed-world equivalence tests use exactly this.
    max_chunk_members: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            not isinstance(self.chunk_state_bytes, int)
            or self.chunk_state_bytes < 1
        ):
            raise ValueError(
                f"chunk_state_bytes must be a positive int, got "
                f"{self.chunk_state_bytes!r}"
            )
        if self.state_backend not in _BACKENDS:
            raise ValueError(
                f"state_backend must be one of {_BACKENDS}, got "
                f"{self.state_backend!r}"
            )
        if (
            not isinstance(self.sparse_nodes_threshold, int)
            or self.sparse_nodes_threshold < 1
        ):
            raise ValueError(
                f"sparse_nodes_threshold must be a positive int, got "
                f"{self.sparse_nodes_threshold!r}"
            )
        if self.max_chunk_members is not None and (
            not isinstance(self.max_chunk_members, int)
            or self.max_chunk_members < 1
        ):
            raise ValueError(
                f"max_chunk_members must be a positive int or None, got "
                f"{self.max_chunk_members!r}"
            )

    def resolve_backend(self, num_nodes: int) -> str:
        """The concrete backend (``"dense"`` / ``"sparse"``) for ``n`` nodes."""
        if self.state_backend != "auto":
            return self.state_backend
        return (
            "sparse"
            if num_nodes >= self.sparse_nodes_threshold
            else "dense"
        )

    def chunk_size(
        self,
        num_nodes: int,
        backend: str,
        *,
        state_bytes_per_node: int = 1,
        max_members: int = 4096,
        warn: bool = True,
    ) -> int:
        """Members per chunk under this budget and backend.

        ``state_bytes_per_node`` is the kernel's total dense state bytes
        per (member, node) pair — e.g. 2 for RR-SIM's int8 B-state plus
        bool visited.  Sparse state scales with touched nodes rather
        than ``chunk * num_nodes``, so the sparse answer is simply
        ``max_members``.  A dense chunk that collapses below
        :data:`DEGENERATE_DENSE_CHUNK` warns (once per call) instead of
        silently degrading to near-serial sweeps, naming the sparse
        backend as the fix — the clamp used to drop to 1 with no signal.
        """
        max_members = max(int(max_members), 1)
        if self.max_chunk_members is not None:
            max_members = min(max_members, self.max_chunk_members)
        if backend == "sparse":
            return max_members
        denom = max(int(num_nodes), 1) * max(int(state_bytes_per_node), 1)
        chunk = int(np.clip(self.chunk_state_bytes // denom, 1, max_members))
        if warn and chunk < min(DEGENERATE_DENSE_CHUNK, max_members):
            warnings.warn(
                f"dense sweep state budget ({self.chunk_state_bytes} bytes) "
                f"only affords chunks of {chunk} member(s) on a "
                f"{num_nodes}-node graph; batching degenerates — use the "
                "sparse state backend (state_backend='sparse' or 'auto') "
                "or raise chunk_state_bytes",
                RuntimeWarning,
                stacklevel=3,
            )
        return chunk


#: the config generators start with; sessions overwrite it from
#: ``EngineConfig`` (see ``ComICSession._pool_entry``).
DEFAULT_SWEEP = SweepConfig()


class DenseFlags:
    """Boolean per-(member, node) state over a flat dense array."""

    kind = "dense"

    __slots__ = ("_a",)

    def __init__(self, lanes: int, num_nodes: int) -> None:
        self._a = np.zeros(int(lanes) * int(num_nodes), dtype=bool)

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Flag value of every key (shape-preserving gather)."""
        return self._a[keys]

    def mark(self, keys: np.ndarray) -> None:
        """Set the flag at ``keys`` (duplicates allowed)."""
        self._a[keys] = True

    def mark_new(self, keys: np.ndarray) -> np.ndarray:
        """Test-and-set: mark and return the sorted distinct fresh keys.

        The sweeps' dedup step — ``key[~visited[key]]`` then
        ``unique_keys`` then scatter — as one backend operation.
        """
        keys = keys[~self._a[keys]]
        if keys.size == 0:
            return keys
        keys = unique_keys(keys)
        self._a[keys] = True
        return keys

    @property
    def nbytes(self) -> int:
        """Bytes of state held right now."""
        return self._a.nbytes


class SparseFlags:
    """Boolean per-(member, node) state as a sorted touched-key array.

    Memory is 8 bytes per *touched* key, independent of ``num_nodes``.
    """

    kind = "sparse"

    __slots__ = ("_keys",)

    def __init__(self, lanes: int, num_nodes: int) -> None:
        self._keys = np.empty(0, dtype=np.int64)

    def get(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        if self._keys.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        return self._keys[pos] == keys

    def mark(self, keys: np.ndarray) -> None:
        if np.asarray(keys).size == 0:
            return
        ukeys = unique_keys(np.asarray(keys).ravel())
        fresh = ukeys[~self.get(ukeys)]
        if fresh.size:
            self._keys, _ = merge_sorted(self._keys, fresh)

    def mark_new(self, keys: np.ndarray) -> np.ndarray:
        if keys.size == 0:
            return np.asarray(keys, dtype=np.int64)
        ukeys = unique_keys(np.asarray(keys))
        fresh = ukeys[~self.get(ukeys)]
        if fresh.size:
            self._keys, _ = merge_sorted(self._keys, fresh)
        return fresh

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes


class DenseValues:
    """Small-integer per-(member, node) state over a flat dense array."""

    kind = "dense"

    __slots__ = ("_a",)

    def __init__(self, lanes: int, num_nodes: int, dtype) -> None:
        self._a = np.zeros(int(lanes) * int(num_nodes), dtype=dtype)

    def get(self, keys: np.ndarray) -> np.ndarray:
        """State value of every key (0 where never written)."""
        return self._a[keys]

    def put(self, keys: np.ndarray, vals) -> None:
        """Scatter ``vals`` at ``keys``; keys must be distinct."""
        self._a[keys] = vals

    def or_(self, keys: np.ndarray, flags) -> None:
        """Bitwise-OR ``flags`` into the state at distinct ``keys``."""
        self._a[keys] |= flags

    @property
    def nbytes(self) -> int:
        return self._a.nbytes


class SparseValues:
    """Small-integer per-(member, node) state as sorted keys + values.

    Memory is ``8 + itemsize`` bytes per *touched* key.  Keys passed to
    :meth:`put` / :meth:`or_` must be distinct within one call (the
    sweeps' keys come out of ``unique_keys``); repeats within a
    :meth:`get` call are fine.
    """

    kind = "sparse"

    __slots__ = ("_dtype", "_keys", "_vals")

    def __init__(self, lanes: int, num_nodes: int, dtype) -> None:
        self._dtype = np.dtype(dtype)
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=self._dtype)

    def get(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        out = np.zeros(keys.shape, dtype=self._dtype)
        if self._keys.size:
            pos = np.minimum(
                np.searchsorted(self._keys, keys), self._keys.size - 1
            )
            hit = self._keys[pos] == keys
            out[hit] = self._vals[pos[hit]]
        return out

    def put(self, keys: np.ndarray, vals) -> None:
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        vals = np.broadcast_to(np.asarray(vals, dtype=self._dtype), keys.shape)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        svals = vals[order]
        if self._keys.size:
            pos = np.minimum(
                np.searchsorted(self._keys, skeys), self._keys.size - 1
            )
            hit = self._keys[pos] == skeys
            if hit.any():
                self._vals[pos[hit]] = svals[hit]
            miss = ~hit
            skeys = skeys[miss]
            svals = svals[miss]
        if skeys.size:
            self._keys, self._vals = merge_sorted(
                self._keys, skeys, self._vals, svals
            )

    def or_(self, keys: np.ndarray, flags) -> None:
        keys = np.asarray(keys)
        if keys.size == 0:
            return
        self.put(keys, self.get(keys) | np.asarray(flags, dtype=self._dtype))

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + self._vals.nbytes


def make_flags(lanes: int, num_nodes: int, backend: str):
    """A boolean state over ``lanes * num_nodes`` keys on ``backend``."""
    if backend == "sparse":
        return SparseFlags(lanes, num_nodes)
    if backend == "dense":
        return DenseFlags(lanes, num_nodes)
    raise ValueError(f"unknown resolved backend {backend!r}")


def make_values(lanes: int, num_nodes: int, dtype, backend: str):
    """A small-integer state over ``lanes * num_nodes`` keys on ``backend``."""
    if backend == "sparse":
        return SparseValues(lanes, num_nodes, dtype)
    if backend == "dense":
        return DenseValues(lanes, num_nodes, dtype)
    raise ValueError(f"unknown resolved backend {backend!r}")
