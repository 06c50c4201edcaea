"""Outside-in benchmark of the Com-IC query path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm_http --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with nothing patched and reports its
end-to-end metrics.  ``--trace 1`` runs the workload twice at the same
seed, first untraced and then with :class:`spans.Tracer` installed, checks
that both give identical answers, and reports the per-layer metrics plus
the tracing overhead (traced / untraced) of every end-to-end metric.  The
last line of standard output is the result object; the line before it
carries host information, a fixed numpy calibration rate and the failure
reasons, if any.  ``README.md`` maps every metric to its layer and
workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import cpuinfo
import numpy as np

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for stores and span dumps, inside the checkout.
WORK_DIR = ROOT / ".perfbench"


def host_info() -> dict:
    """CPU and interpreter description, recorded with every result."""
    cpu = cpuinfo.get_cpu_info()
    return {
        "cpu": cpu.get("brand_raw"),
        "arch": cpu.get("arch"),
        "logical_cpus": cpu.get("count"),
        "hz_advertised": cpu.get("hz_advertised_friendly"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def calibration_rate() -> float:
    """Million float64 elements sorted per second: best of 5 fixed sorts.

    A machine-speed reference, so a drop between two commits measured on
    different hosts can be told apart from a code change.
    """
    data = np.random.default_rng(0).random(1 << 20)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        np.sort(data)
        best = min(best, time.perf_counter() - started)
    return data.size / best / 1e6


def layer_metrics(phase, spans) -> dict[str, float]:
    """Per-layer metrics of one traced phase (see ``README.md``).

    ``<call>.ms`` is the mean milliseconds per call and ``<call>.calls``
    the number of calls; counts and bytes are totals over the phase.
    """
    rows = summarize(spans)

    def total_s(name: str) -> float:
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    def mean_ms(name: str) -> float:
        return total_s(name) * 1e3 / calls(name) if calls(name) else 0.0

    def attr(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0)

    session = phase.counters.get("session", {})
    store = phase.counters.get("store", {})
    server = phase.counters.get("server", {})
    http = total_s("service.http")
    answered = server.get("queries", 0) + server.get("coalesced", 0)
    metrics = {
        "service.http.ms": mean_ms("service.http"),
        "service.handle_query.ms": mean_ms("service.handle_query"),
        "service.transport_share": (
            1.0 - total_s("service.handle_query") / http if http else 0.0
        ),
        "service.wait_share": (
            (total_s("service.handle_query") - total_s("api.run")) / http
            if http
            else 0.0
        ),
        "service.handle_delta.ms": mean_ms("service.handle_delta"),
        "service.delta_http.ms": mean_ms("service.delta_http"),
        "service.coalesced_share": (
            server.get("coalesced", 0) / answered if answered else 0.0
        ),
        "api.run.ms": mean_ms("api.run"),
        "api.select_seeds.ms": mean_ms("api.select_seeds"),
        "api.run_overhead.ms": (
            (total_s("api.run") - total_s("api.select_seeds")) * 1e3 / calls("api.run")
            if calls("api.run")
            else 0.0
        ),
        "api.apply_delta.ms": mean_ms("api.apply_delta"),
        "api.pool_hits": session.get("pool_hits", 0),
        "api.pool_misses": session.get("pool_misses", 0),
        "api.theta_pins": session.get("theta_pins", 0),
        "api.rr_sets_sampled": session.get("rr_sets_sampled", 0),
        "rrset.top_up.ms": mean_ms("rrset.top_up"),
    }
    for regime in ("rr_sim_plus", "rr_cim", "rr_block"):
        name = f"rrset.generate_batch.{regime}"
        sets = attr(name, "sets")
        metrics[f"{name}.ms"] = mean_ms(name)
        metrics[f"{name}.sets"] = sets
        metrics[f"{name}.sets_per_s"] = sets / total_s(name) if total_s(name) else 0.0
    metrics.update(
        {
            "rrset.coin_memo.calls": calls("rrset.coin_memo"),
            "rrset.coin_memo.ms": mean_ms("rrset.coin_memo"),
            "rrset.greedy.calls": calls("rrset.greedy"),
            "rrset.greedy.ms": mean_ms("rrset.greedy"),
            "rrset.repair.ms": mean_ms("rrset.repair"),
            "rrset.repair.members_resampled": attr("rrset.repair", "resampled"),
            "rrset.repair.fallbacks": attr("rrset.repair", "fallback"),
            "rrset.pool_bytes": phase.pool_bytes,
            "store.save.calls": calls("store.save"),
            "store.save.ms": mean_ms("store.save"),
            "store.save.bytes": attr("store.save", "bytes"),
            "store.append_share": (
                store.get("appends", 0) / store["saves"] if store.get("saves") else 0.0
            ),
            "store.load.calls": calls("store.load"),
            "store.load.ms": mean_ms("store.load"),
            "graph.apply_delta.ms": mean_ms("graph.apply_delta"),
        }
    )
    return metrics


def compare_answers(untraced, traced) -> list[str]:
    """Keys whose traced answer differs from the untraced one."""
    common = sorted(set(untraced.answers) & set(traced.answers))
    return [
        f"{label}: traced {traced.answers[label]} != untraced {untraced.answers[label]}"
        for label in common
        if traced.answers[label] != untraced.answers[label]
    ]


def phase_detail(phase) -> dict:
    writes_ms = [s * 1e3 for s in phase.write_s]
    groups: dict[str, list[float]] = {}
    for group, seconds in phase.latencies:
        groups.setdefault(group, []).append(seconds)
    return {
        "queries": len(phase.latencies),
        "by_group": {
            group: {
                "count": len(times),
                "total_s": sum(times),
                "median_ms": statistics.median(times) * 1e3,
            }
            for group, times in sorted(groups.items())
        },
        "measured_s": phase.measured_s,
        "setup_s": phase.setup_s,
        "writes": len(writes_ms),
        "write_p50_ms": statistics.median(writes_ms) if writes_ms else None,
        "attempted": phase.outcome.attempted,
        "failed": phase.outcome.failed,
        "failure_reasons": phase.outcome.reasons,
    }


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    e2e_units, layer_units = load_units()
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.FULL

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "calibration_sort_melem_per_s": calibration_rate(),
    }
    scratch = workloads.Scratch(WORK_DIR / "tmp")
    try:
        untraced = workload(scale, args.seed, args.seconds, scratch)
        untraced_e2e = untraced.end_to_end()
        phases = [untraced]
        detail["untraced"] = phase_detail(untraced)
        if args.trace:
            tracer = Tracer()
            traced = workload(scale, args.seed, args.seconds, scratch, tracer=tracer)
            phases.append(traced)
            traced_e2e = traced.end_to_end()
            spans_path = WORK_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            mismatches = compare_answers(untraced, traced)
            traced.outcome.attempted += len(set(untraced.answers) & set(traced.answers))
            traced.outcome.failed += len(mismatches)
            traced.outcome.reasons += mismatches[:20]
            detail["traced"] = phase_detail(traced)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
            values = layer_metrics(traced, tracer.spans)
            for name, value in untraced_e2e.items():
                values[f"trace.overhead.{name}"] = traced_e2e[name] / value
            units = layer_units
        else:
            values, units = untraced_e2e, e2e_units
    finally:
        scratch.close()

    attempted = sum(p.outcome.attempted for p in phases)
    failed = sum(p.outcome.failed for p in phases)
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: emitted metrics {sorted(set(values) ^ set(units))} "
            "disagree with BENCHMARK.json"
        )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metric_block(values, units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
