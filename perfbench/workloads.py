"""The three user paths the benchmark drives, and the checks on their answers.

* :func:`cold_campaigns` — in-process ``ComICSession.run`` on new pool keys
  (every answer samples): random contexts (the paper's Table 3 policy)
  and one hub context (Table 4 policy).
* :func:`warm_http` — a restarted ``ComICServer`` answering repeat keys
  from stored pools over HTTP, in a closed loop of client threads.
* :func:`churn_http` — the ``warm_http`` set-up with touch tracking, one
  reader and one writer that alternates graph deltas with reads.

Every workload returns a :class:`Phase`: per-call latencies, set-up
times, the answers (for the traced/untraced comparison), the counters
read from public stats objects, and an :class:`Outcome` that counts each
call whose answer fails a check.  See ``README.md`` for why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import gc
import multiprocessing
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.api import (
    BlockingQuery,
    ComICSession,
    CompInfMaxQuery,
    EngineConfig,
    GraphDelta,
    SelfInfMaxQuery,
)
from repro.graph.generators import power_law_digraph
from repro.models.gaps import GAP
from repro.service import CatalogedPoolStore, ComICServer, ServiceClient

GRAPH_NAME = "bench"

#: query family -> (GAP, the RR regime the router must pick for it).
FAMILIES: dict[str, tuple[GAP, str]] = {
    "selfinf": (GAP(0.3, 0.75, 0.5, 0.5), "rr-sim+"),
    "compinf": (GAP(0.3, 0.75, 0.5, 1.0), "rr-cim"),
    "blocking": (GAP(0.6, 0.1, 0.7, 0.7), "rr-block"),
}

#: set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: closed-loop reader threads on ``warm_http`` (the reference box's nproc,
#: fixed so that runs on other machines drive the same load).
WARM_READERS = 2
#: edges each churn delta halves (and the next one restores).
DELTA_EDGES = 4
#: distinct delta pairs a churn run cycles through.  What a delta costs
#: depends on how many pooled RR-sets touch its edges, which is
#: heavy-tailed (one 4-edge delta resampled 8,577 members, most fewer
#: than 1,000), so edges drawn from the workload seed made read latency
#: a property of the draw; the pairs are drawn from ``CONTEXT_SEED``.
DELTA_PAIRS = 16
#: a churn delta is due every this many seconds (the next one goes at
#: once when a cycle overruns).  A delta holds the graph lock for about
#: half a second.  Back to back, or one a second, deltas kept the lock
#: busy most of the time: the median read flipped between the blocked
#: and the unblocked mode and read throughput spread 0.3 from run to run.
#: One every 2 s left about 8% of the reads slow (waiting for a delta, or
#: re-deriving theta after one), so the 90th percentile sat on the edge
#: between the modes and jumped from 52 to 96 ms when deltas ran slow.
WRITE_INTERVAL_S = 3.0
#: seed of the fixed random contexts (see :func:`random_contexts`).
CONTEXT_SEED = 1


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    num_nodes: int
    average_degree: float
    max_rr_sets: int
    k: int
    context_size: int
    #: random (Table 3) contexts per cold campaign list.
    random_contexts: int
    #: out-degree ranks of the hub (Table 4) context.
    hub_ranks: tuple[int, int]
    #: random contexts primed per family on the HTTP workloads.
    warm_contexts: int

    def graph(self):
        return power_law_digraph(
            self.num_nodes,
            average_degree=self.average_degree,
            probability=0.2,
            rng=2,
        )

    def config(self, *, track_touches: bool = False) -> EngineConfig:
        return EngineConfig(
            engine="imm",
            epsilon=0.5,
            max_rr_sets=self.max_rr_sets,
            track_touches=track_touches,
        )


#: the benchmarked configuration: the quick-bench graph of
#: ``BENCH_rrset.json`` (10,000 nodes, 79,459 edges).
FULL = Scale(
    num_nodes=10_000,
    average_degree=8.0,
    max_rr_sets=10_000,
    k=10,
    context_size=10,
    random_contexts=3,
    hub_ranks=(50, 60),
    warm_contexts=2,
)

#: a seconds-long configuration for the benchmark's self-test.
TINY = Scale(
    num_nodes=300,
    average_degree=4.0,
    max_rr_sets=400,
    k=3,
    context_size=3,
    random_contexts=1,
    hub_ranks=(5, 8),
    warm_contexts=1,
)


# ----------------------------------------------------------------------
# Outcome accounting and answer checks
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Operations attempted, and the ones whose answer failed a check."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed when ``problems`` is not empty."""
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append("; ".join(problems))


def answer_problems(
    body: dict, family: str, context: tuple[int, ...], k: int, num_nodes: int
) -> list[str]:
    """Checks every answer must pass, whatever the workload."""
    diagnostics = body.get("diagnostics", {})
    problems = []
    if diagnostics.get("degraded"):
        problems.append(f"degraded answer: {diagnostics.get('degraded_reason')}")
    regime = FAMILIES[family][1]
    if diagnostics.get("regime") != regime:
        problems.append(
            f"{family} routed to {diagnostics.get('regime')!r}, not {regime!r}"
        )
    seeds = list(body.get("seeds", ()))
    if len(seeds) != k or len(set(seeds)) != k:
        problems.append(f"expected {k} distinct seeds, got {seeds}")
    if any(not 0 <= int(s) < num_nodes for s in seeds):
        problems.append(f"seed out of range in {seeds}")
    if family == "blocking" and set(seeds) & set(context):
        problems.append(f"blocking seeds {seeds} overlap seeds_a")
    return problems


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Key:
    """One query the workload asks: family, opposite seeds and rng pin."""

    label: str
    family: str
    context: tuple[int, ...]
    rng: int

    def query(self, k: int):
        gaps = FAMILIES[self.family][0]
        if self.family == "selfinf":
            return SelfInfMaxQuery(seeds_b=self.context, k=k, gaps=gaps)
        if self.family == "compinf":
            return CompInfMaxQuery(seeds_a=self.context, k=k, gaps=gaps)
        return BlockingQuery(seeds_a=self.context, k=k, gaps=gaps, method="auto")


def random_contexts(scale: Scale, count: int) -> list[tuple[str, tuple[int, ...]]]:
    """The first ``count`` random (Table 3) contexts, drawn from ``CONTEXT_SEED``.

    Uniform 10-node contexts have heavy-tailed cost — one CompInfMax
    answer took 0.3 s on one and 10.8 s on another — so contexts drawn
    from the workload seed made the run-to-run spread a property of the
    draw, not of the code.  Like the graph, they are fixed: ``CONTEXT_SEED``
    is the first seed from 0 whose first three contexts each answer
    SelfInfMax in under 3.5 s and CompInfMax in under 2 s (seed 0 drew a
    context that lands in a hub's cascade, 4.7 s and 6.7 s).  That case
    is what the hub context measures.
    """
    rng = np.random.default_rng(CONTEXT_SEED)
    return [
        (
            f"random{i}",
            tuple(
                int(v)
                for v in rng.choice(
                    scale.num_nodes, scale.context_size, replace=False
                )
            ),
        )
        for i in range(count)
    ]


def hub_context(graph, scale: Scale) -> tuple[int, ...]:
    order = np.argsort(-graph.out_degrees, kind="stable")
    lo, hi = scale.hub_ranks
    return tuple(int(v) for v in order[lo:hi])


def keys_for(
    contexts: list[tuple[str, tuple[int, ...]]], rng: np.random.Generator
) -> list[Key]:
    return [
        Key(f"{name}/{family}", family, context, int(rng.integers(2**31)))
        for name, context in contexts
        for family in FAMILIES
    ]


def churn_deltas(graph) -> list[tuple[GraphDelta, GraphDelta]]:
    """``DELTA_PAIRS`` (halve, restore) pairs of ``DELTA_EDGES`` edges each.

    Each pair halves stride-spaced edges from a random offset, then puts
    their original weights back, so the graph only ever leaves its base
    state for one halved state at a time.  The offsets are fixed, like the
    contexts: see ``DELTA_PAIRS``.
    """
    m = graph.num_edges
    src, dst = graph.edge_sources, graph.edge_targets
    prob = graph.edge_probabilities
    pairs = []
    for offset in np.random.default_rng(CONTEXT_SEED).integers(m, size=DELTA_PAIRS):
        picks = [(int(offset) + i * (m // DELTA_EDGES)) % m for i in range(DELTA_EDGES)]
        edges = [(int(src[i]), int(dst[i]), float(prob[i])) for i in picks]
        halve = GraphDelta(reweight=tuple((u, v, p / 2.0) for u, v, p in edges))
        pairs.append((halve, GraphDelta(reweight=tuple(edges))))
    return pairs


# ----------------------------------------------------------------------
# Phase results
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one execution of a workload measured."""

    outcome: Outcome = field(default_factory=Outcome)
    setup_s: list[float] = field(default_factory=list)
    #: (group, seconds) of every timed query answer; the group is the
    #: family, and on cold_campaigns also the context.
    latencies: list[tuple[str, float]] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    measured_s: float = 0.0
    #: key label -> seeds, for the answers that must repeat exactly.
    answers: dict[str, list[int]] = field(default_factory=dict)
    #: summed public counters: session (SessionStats), store
    #: (StoreStats) and server (ServerStats) deltas over the phase.
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    pool_bytes: int = 0
    #: peak resident set of the phase, from :func:`reset_peak_rss` on.
    peak_rss_mb: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add_latency(self, group: str, seconds: float) -> None:
        with self._lock:
            self.latencies.append((group, seconds))

    def add_counters(self, group: str, values: dict[str, Any]) -> None:
        bucket = self.counters.setdefault(group, {})
        for name, value in values.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                bucket[name] = bucket.get(name, 0) + value

    def end_to_end(self) -> dict[str, float]:
        times_ms = [seconds * 1e3 for _, seconds in self.latencies]
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
            "query_p50_ms": statistics.median(times_ms),
            "query_p90_ms": percentile(times_ms, 90),
            "queries_per_s": len(times_ms) / self.measured_s,
        }


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method).

    On the twelve cold answers p90 falls between the two hub answers, so
    it averages over both instead of following the hub SelfInfMax answer
    alone as the inclusive method does (run-to-run spread 0.22 then).
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def release() -> None:
    """Collect what a closed session left behind before the next one starts.

    Closed pools (and the store columns they memory-map) sit in reference
    cycles until the collector runs; collecting at a fixed point keeps the
    peak-memory figure from depending on when it happens to run.
    """
    gc.collect()


def reset_peak_rss() -> None:
    """Start a new peak-memory window at the current resident set.

    ``ru_maxrss`` never goes down, so it would report the peak of whatever
    ran earlier in the process (building the graph, or the untraced phase
    before a traced one).  Writing 5 to ``clear_refs`` resets the kernel's
    high-water mark, which :func:`peak_rss_mb` reads.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


def peak_rss_mb() -> float:
    """Peak resident set since the last :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Scratch:
    """Temp directories inside the checkout, removed on close."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def subdir(self, name: str) -> Path:
        """A new, empty directory (unique across phases of one run)."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.path))

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# cold_campaigns
# ----------------------------------------------------------------------
def cold_campaigns(
    scale: Scale,
    seed: int,
    seconds: float,
    scratch: Scratch,
    tracer=None,
) -> Phase:
    """Answer every family on random and hub contexts, each a new pool key.

    One campaign list is ``random_contexts`` random contexts plus the hub
    context, times the three families, on a fresh session and store.
    Lists repeat (each on a fresh session and store, so every answer
    still samples) until ``seconds`` of answering have passed.
    """
    rng = np.random.default_rng(seed)
    phase = Phase()
    release()
    reset_peak_rss()
    if tracer is not None:
        tracer.install()
    try:
        session = None
        for attempt in range(SETUP_REPEATS):
            if session is not None:
                session.close()
                release()
            started = time.perf_counter()
            graph = scale.graph()
            store = CatalogedPoolStore(scratch.subdir(f"setup-{attempt}"))
            session = ComICSession(graph, config=scale.config(), store=store)
            phase.setup_s.append(time.perf_counter() - started)
        contexts = random_contexts(scale, scale.random_contexts)
        contexts.append(("hub", hub_context(graph, scale)))
        campaign = 0
        while True:
            if campaign:
                session.close()
                release()
                store = CatalogedPoolStore(scratch.subdir(f"campaign-{campaign}"))
                session = ComICSession(graph, config=scale.config(), store=store)
            stats_before = session.stats.as_dict()
            store_before = store.stats.as_dict()
            listed = [(f"c{campaign}.{name}", ctx) for name, ctx in contexts]
            for key in keys_for(listed, rng):
                started = time.perf_counter()
                result = session.run(key.query(scale.k), rng=key.rng)
                elapsed = time.perf_counter() - started
                phase.measured_s += elapsed
                context_name = key.label.split("/")[0].split(".")[-1]
                phase.add_latency(f"{key.family}.{context_name}", elapsed)
                body = result.to_dict()
                problems = answer_problems(
                    body, key.family, key.context, scale.k, scale.num_nodes
                )
                if body["diagnostics"].get("rr_sets_sampled", 0) <= 0:
                    problems.append(f"cold answer {key.label} did not sample")
                phase.outcome.record(problems)
                phase.answers[key.label] = list(body["seeds"])
            phase.add_counters("session", _delta(session.stats.as_dict(), stats_before))
            phase.add_counters("store", _delta(store.stats.as_dict(), store_before))
            phase.pool_bytes = session.pool_bytes_total
            campaign += 1
            if phase.measured_s >= seconds:
                break
        session.close()
        release()
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.peak_rss_mb = peak_rss_mb()
    return phase


def _delta(after: dict, before: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


# ----------------------------------------------------------------------
# The daemon workloads
# ----------------------------------------------------------------------
class Daemon:
    """One ``ComICServer`` serving the benchmark graph over HTTP."""

    def __init__(self, graph, scale: Scale, store_dir: Path, *, track_touches: bool):
        self.server = ComICServer()
        self.server.register_graph(
            GRAPH_NAME,
            graph,
            config=scale.config(track_touches=track_touches),
            store=CatalogedPoolStore(store_dir),
        )
        self.host, self.port = self.server.start()

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port)

    def close(self, phase: Optional[Phase] = None) -> None:
        """Stop serving; first fold this server's counters into ``phase``."""
        if phase is not None:
            with self.client() as client:
                stats = client.stats()
            graph_stats = stats["graphs"][GRAPH_NAME]
            phase.add_counters("server", stats["server"])
            phase.add_counters("session", graph_stats["session"])
            phase.add_counters("store", graph_stats.get("store", {}))
            phase.pool_bytes = int(graph_stats["pool_bytes_total"])
        self.server.close()
        release()


def _read(
    client: ServiceClient,
    key: Key,
    scale: Scale,
    phase: Phase,
    check: Callable[[dict], list[str]],
    *,
    timed: bool = True,
) -> Optional[dict]:
    """One read, counted as failed on any error or failed check.

    ``timed`` reads add their latency to ``phase`` (set-up reads do not).
    """
    started = time.perf_counter()
    try:
        body = client.query(GRAPH_NAME, key.query(scale.k), rng=key.rng)
    except Exception as exc:  # every failure mode counts against the run
        phase.outcome.record([f"{key.label}: {type(exc).__name__}: {exc}"])
        return None
    if timed:
        phase.add_latency(key.family, time.perf_counter() - started)
    problems = answer_problems(
        body, key.family, key.context, scale.k, scale.num_nodes
    ) + check(body)
    phase.outcome.record([f"{key.label}: {p}" for p in problems])
    return body


def _prime(
    graph, scale: Scale, store_dir: Path, keys: list[Key], track_touches: bool
) -> tuple[dict[str, list[int]], list[list[str]]]:
    """Answer every key once on a new daemon over ``store_dir``, filling it.

    Returns each answer's seeds by key label, and each answer's failed
    checks (see :meth:`Outcome.record`).
    """
    primed: dict[str, list[int]] = {}
    checks: list[list[str]] = []
    daemon = Daemon(graph, scale, store_dir, track_touches=track_touches)
    try:
        with daemon.client() as client:
            for key in keys:
                body = client.query(GRAPH_NAME, key.query(scale.k), rng=key.rng)
                problems = answer_problems(
                    body, key.family, key.context, scale.k, scale.num_nodes
                )
                checks.append([f"{key.label}: {p}" for p in problems])
                primed[key.label] = list(body["seeds"])
    finally:
        daemon.close()
    return primed, checks


def in_child(func: Callable[[], Any]) -> Any:
    """``func()``, run to completion in a forked child process.

    The child inherits everything set up so far (a tracer's wrappers
    included), and what it allocates never joins this process's resident
    set.  ``func`` must return something picklable.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target() -> None:
        try:
            sender.send((None, func()))
        except BaseException as exc:  # reported by the parent
            sender.send((f"{type(exc).__name__}: {exc}", None))

    child = context.Process(target=target)
    child.start()
    sender.close()
    try:
        error, value = receiver.recv()
    except EOFError:
        error, value = "the child process ended without a result", None
    finally:
        receiver.close()
        child.join()
    if error is not None:
        raise RuntimeError(f"{error} (child exit code {child.exitcode})")
    return value


def _serve_warm(
    scale: Scale,
    graph,
    phase: Phase,
    seed: int,
    seconds: float,
    scratch: Scratch,
    tracer,
    *,
    track_touches: bool,
    body: Callable,
) -> Phase:
    """Shared set-up of the daemon workloads, then ``body`` times reads.

    Set-up primes every key through one server and closes it, then
    restarts a server on the same store and answers each key once (store
    loads, pinned theta) — ``SETUP_REPEATS`` times; the last server stays
    up for ``body(phase, daemon, keys, warm_check, rng, seconds)``, where
    ``warm_check(key)`` checks an answer against its priming answer.

    Priming runs in a forked child (:func:`in_child`): its sampling is not
    part of what the phase measures, and left behind in this process it
    would set a different starting point for the peak-memory window on
    every run.  A ``tracer`` is installed before the fork, so the priming
    answers are traced answers too (compared with the untraced ones by
    ``run.py``); their spans stay in the child.
    """
    rng = np.random.default_rng(seed)
    keys = keys_for(random_contexts(scale, scale.warm_contexts), rng)
    store_dir = scratch.subdir("store")

    if tracer is not None:
        tracer.install()
    daemon = None
    try:
        primed, checks = in_child(
            lambda: _prime(graph, scale, store_dir, keys, track_touches)
        )
        for problems in checks:
            phase.outcome.record(problems)
        phase.answers.update(primed)
        reset_peak_rss()

        def warm_check(key: Key) -> Callable[[dict], list[str]]:
            def check(answer: dict) -> list[str]:
                problems = []
                if answer["diagnostics"].get("rr_sets_sampled") != 0:
                    problems.append("restarted server resampled")
                if list(answer["seeds"]) != primed[key.label]:
                    problems.append("seeds differ from the priming answer")
                return problems

            return check

        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.close(phase)
            started = time.perf_counter()
            daemon = Daemon(graph, scale, store_dir, track_touches=track_touches)
            with daemon.client() as client:
                for key in keys:
                    ok = _read(client, key, scale, phase, warm_check(key), timed=False)
                    if ok is None:
                        raise RuntimeError(f"restart read of {key.label} failed")
            phase.setup_s.append(time.perf_counter() - started)
        body(phase, daemon, keys, warm_check, rng, seconds)
    finally:
        if daemon is not None:
            daemon.close(phase)
        if tracer is not None:
            tracer.uninstall()
    phase.peak_rss_mb = peak_rss_mb()
    return phase


def _reader(
    daemon: Daemon,
    keys: list[Key],
    scale: Scale,
    phase: Phase,
    check_for: Callable[[Key], Callable[[dict], list[str]]],
    order: np.ndarray,
    start: threading.Barrier,
    stop_at: list[float],
) -> None:
    """A closed-loop client: the next read goes out when the last returns."""
    with daemon.client() as client:
        start.wait()
        i = 0
        while time.perf_counter() < stop_at[0]:
            key = keys[order[i % len(order)]]
            _read(client, key, scale, phase, check_for(key))
            i += 1


def _run_threads(targets: list[Callable[[], None]], seconds: float, phase: Phase) -> None:
    """Start ``targets`` together, let them run ``seconds``, join them all."""
    stop_at = [float("inf")]
    start = threading.Barrier(len(targets) + 1)
    errors: list[BaseException] = []

    def guarded(target):
        def run():
            try:
                target(start, stop_at)
            except BaseException as exc:  # surfaced below, after the join
                errors.append(exc)
                start.abort()

        return run

    threads = [threading.Thread(target=guarded(t), daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    try:
        start.wait()
    except threading.BrokenBarrierError:
        pass  # a thread failed before the start; join them all, then raise
    began = time.perf_counter()
    stop_at[0] = began + seconds
    for thread in threads:
        thread.join()
    phase.measured_s = time.perf_counter() - began
    if errors:
        raise errors[0]


def warm_http(scale: Scale, seed: int, seconds: float, scratch: Scratch, tracer=None) -> Phase:
    """Closed loop of ``WARM_READERS`` clients over the primed keys."""

    def body(phase, daemon, keys, warm_check, rng, seconds):
        orders = [rng.permutation(np.repeat(np.arange(len(keys)), 8)) for _ in range(WARM_READERS)]
        targets = [
            (lambda start, stop_at, order=order: _reader(
                daemon, keys, scale, phase, warm_check, order, start, stop_at
            ))
            for order in orders
        ]
        _run_threads(targets, seconds, phase)

    return _serve_warm(
        scale, scale.graph(), Phase(), seed, seconds, scratch, tracer,
        track_touches=False, body=body,
    )


def churn_http(scale: Scale, seed: int, seconds: float, scratch: Scratch, tracer=None) -> Phase:
    """One reader plus one writer alternating a delta and a read.

    The writer posts the deltas of :func:`churn_deltas` in order — halve
    one edge set, restore it, halve the next — one every
    ``WRITE_INTERVAL_S``, with a read after each.  The query metrics time
    the reader, the closed-loop client as on ``warm_http``; the writer's
    calls are the churn it has to live with, and are checked, not timed
    as queries (delta latency goes to ``Phase.write_s``).

    The deltas and the fingerprints of the graph states they lead to are
    worked out here, before anything is traced, so that every traced
    ``GraphDelta.apply`` is one the daemon made.
    """
    graph = scale.graph()
    phase = Phase()
    deltas = churn_deltas(graph)
    states = {graph.fingerprint()}
    for halve, restore in deltas:
        halved = halve.apply(graph).graph
        states.add(halved.fingerprint())
        restored = restore.apply(halved).graph.fingerprint()
        phase.outcome.record(
            []
            if restored == graph.fingerprint()
            else ["restoring the halved edges does not restore the graph"]
        )

    def churn_check(key: Key) -> Callable[[dict], list[str]]:
        def check(answer: dict) -> list[str]:
            fingerprint = answer["diagnostics"].get("graph_fingerprint")
            if fingerprint not in states:
                return [f"answer on unknown graph state {fingerprint}"]
            return []

        return check

    def body(phase, daemon, keys, warm_check, rng, seconds):
        reader_order = rng.permutation(np.repeat(np.arange(len(keys)), 8))
        writer_order = rng.permutation(np.repeat(np.arange(len(keys)), 8))
        delta_pins = [int(v) for v in rng.integers(2**31, size=64)]

        def post(client: ServiceClient, i: int) -> Optional[float]:
            """Post delta ``i`` of the cycle and check its report.

            Returns the seconds it took, or ``None`` when it failed.
            """
            delta = deltas[(i // 2) % len(deltas)][i % 2]
            started = time.perf_counter()
            try:
                report = client.apply_delta(
                    GRAPH_NAME, delta, rng=delta_pins[i % len(delta_pins)]
                )
            except Exception as exc:  # counts against the run
                phase.outcome.record([f"delta {i}: {type(exc).__name__}: {exc}"])
                return None
            elapsed = time.perf_counter() - started
            problems = []
            if report.get("fingerprint") not in states:
                problems.append(f"delta {i} left an unknown graph state")
            if report.get("pools_regenerated"):
                problems.append(f"delta {i} regenerated pools instead of repairing")
            phase.outcome.record(problems)
            return elapsed

        # The first two deltas after a restart take 2-3 s each (against
        # about 0.5 s later): they page in every pool's touch columns and
        # run the repair path for the first time in the process.  One
        # untimed pair (the graph ends where it started) keeps that out of
        # the timed phase, where it made the reader's p90 and throughput
        # depend on how long the first two deltas happened to take.
        with daemon.client() as client:
            for i in range(2):
                post(client, i)

        def writer(start, stop_at):
            with daemon.client() as client:
                start.wait()
                due = time.perf_counter()
                i = 0
                while True:
                    time.sleep(max(0.0, min(due, stop_at[0]) - time.perf_counter()))
                    if time.perf_counter() >= stop_at[0]:
                        break
                    due += WRITE_INTERVAL_S
                    elapsed = post(client, i)
                    if elapsed is not None:
                        phase.write_s.append(elapsed)
                    key = keys[writer_order[i % len(writer_order)]]
                    _read(client, key, scale, phase, churn_check(key), timed=False)
                    i += 1

        targets = [
            lambda start, stop_at: _reader(
                daemon, keys, scale, phase, churn_check, reader_order, start, stop_at
            ),
            writer,
        ]
        _run_threads(targets, seconds, phase)

    return _serve_warm(
        scale, graph, phase, seed, seconds, scratch, tracer,
        track_touches=True, body=body,
    )


WORKLOADS: dict[str, Callable[..., Phase]] = {
    "cold_campaigns": cold_campaigns,
    "warm_http": warm_http,
    "churn_http": churn_http,
}
