"""Outside-in span recorder for the traced benchmark run.

:class:`Tracer` wraps the public calls into each layer of the program
(``service``, ``api``, ``rrset``, ``store``, ``graph``) with a timing
shim, records one :class:`Span` per call, and restores every original
attribute on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes:
each name is patched where the program looks it up — methods on their
class, and module-level functions in the module that imported them by
name (``repro.rrset.imm`` binds ``greedy_max_coverage`` and
``cooperative_top_up`` at import time, so patching their home module
would miss every call).

Spans carry a name, start, end, parent span and thread; client-side
spans also carry a request id.  The daemon does not echo request ids
yet, so client and server spans are matched only in aggregate.  Spans
stay in memory until :meth:`Tracer.dump` writes them out at the end of
the run.  Self time is a span's duration minus the part of it that its
children cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: spans timed in the caller's process, which carry a request id.
CLIENT_SPANS = frozenset({"service.http", "service.delta_http"})


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``time.perf_counter`` seconds."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    request_id: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_sets(args: tuple, kwargs: dict, result: Any) -> dict:
    """``generate_batch(count, *, roots=None, ...)``: sets drawn."""
    roots = kwargs.get("roots")
    count = args[1] if len(args) > 1 else kwargs.get("count", 0)
    return {"sets": len(roots) if roots is not None else int(count)}


def _repair_report(args: tuple, kwargs: dict, result: Any) -> dict:
    """``RRSetPool.repair`` returns a ``RepairReport``."""
    return {
        "resampled": int(result.resampled),
        "fallback": not result.eligible,
    }


def _saved_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    """``PoolStore.save(key, pool, ...)``: the saved pool's data bytes."""
    pool = args[2] if len(args) > 2 else kwargs["pool"]
    return {"bytes": int(pool.nbytes)}


def default_targets() -> list[tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, annotate)`` for every traced call.

    ``annotate(args, kwargs, result)`` returns extra span attributes
    (counts the per-layer metrics need) or is ``None``.
    """
    import repro.rrset.imm as imm_module
    import repro.rrset.tim as tim_module
    from repro.api import ComICSession, GraphDelta
    from repro.rrset import (
        RRBlockGenerator,
        RRCimGenerator,
        RRSetPool,
        RRSimPlusGenerator,
    )
    from repro.rrset.pool import ChunkCoinMemo
    from repro.service import CatalogedPoolStore, ComICServer, ServiceClient

    return [
        (ServiceClient, "query", "service.http", None),
        (ServiceClient, "apply_delta", "service.delta_http", None),
        (ComICServer, "handle_query", "service.handle_query", None),
        (ComICServer, "handle_delta", "service.handle_delta", None),
        (ComICSession, "run", "api.run", None),
        (ComICSession, "select_seeds", "api.select_seeds", None),
        (ComICSession, "apply_delta", "api.apply_delta", None),
        (imm_module, "cooperative_top_up", "rrset.top_up", None),
        (imm_module, "greedy_max_coverage", "rrset.greedy", None),
        (tim_module, "cooperative_top_up", "rrset.top_up", None),
        (tim_module, "greedy_max_coverage", "rrset.greedy", None),
        (
            RRSimPlusGenerator,
            "generate_batch",
            "rrset.generate_batch.rr_sim_plus",
            _count_sets,
        ),
        (
            RRCimGenerator,
            "generate_batch",
            "rrset.generate_batch.rr_cim",
            _count_sets,
        ),
        (
            RRBlockGenerator,
            "generate_batch",
            "rrset.generate_batch.rr_block",
            _count_sets,
        ),
        (ChunkCoinMemo, "lookup_or_draw", "rrset.coin_memo", None),
        (RRSetPool, "repair", "rrset.repair", _repair_report),
        (CatalogedPoolStore, "save", "store.save", _saved_bytes),
        (CatalogedPoolStore, "load", "store.load", None),
        (GraphDelta, "apply", "graph.apply_delta", None),
    ]


def _raw_attribute(owner: Any, attribute: str) -> Any:
    """The attribute as stored on ``owner`` (no descriptor binding)."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


class Tracer:
    """Records spans around the calls listed by :func:`default_targets`.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall` around the traced phase.  Install is not
    re-entrant: one tracer patches the program at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, name, annotate in default_targets():
            original = _raw_attribute(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _wrap(self, func: Callable, name: str, annotate: Optional[Callable]):
        tracer = self
        client_side = name in CLIENT_SPANS

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(
                span_id=next(tracer._ids),
                parent_id=stack[-1].span_id if stack else None,
                name=name,
                start=0.0,
                thread=threading.get_ident(),
                request_id=(
                    f"r{next(tracer._requests)}" if client_side else None
                ),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span (and its self time) as JSON lines."""
        own = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                record = asdict(span)
                record["self_s"] = own[span.span_id]
                out.write(json.dumps(record) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed attrs."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.span_id]
        for key, value in span.attrs.items():
            row[key] = row.get(key, 0) + value
    return out
