"""End-to-end and per-layer metrics from one workload run.

End-to-end metrics come from the untraced statements' latencies and the
workload's own counters.  Per-layer metrics come from the spans of the
traced statements; "per statement" values are means over the traced
query statements (a write in ``grid_ingest`` is not a query).

Self time per layer is attributed on the client's timeline, so that the
six layers plus the unaccounted remainder add up to the statement's
wall time:

* a span's self time is its duration minus its same-thread children;
* children on another thread (the server handler under a client verb,
  scheduler workers under a fan-out) cover the union of their intervals
  inside the parent, and that covered time is split across layers in
  proportion to the children's own attribution.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracer import LAYERS, Span, Tracer
from workloads import Outcome

#: the kinds of core operator whose time is reported one by one
CORE_KINDS = ("filter", "project", "regrid", "aggregate", "subsample")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *q*
    percent of the samples at or below it (no interpolation, so a tail
    that sits on one statement kind reads that kind's latency)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, str]]:
    latencies = [ms for _kind, ms, traced in outcome.samples if not traced]
    if not latencies:
        raise RuntimeError("no statement completed; nothing to report")
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (percentile(latencies, 90), "ms"),
        "throughput_qps": (outcome.throughput_qps, "1/s"),
        "write_p50_ms": (statistics.median(outcome.write_ms), "ms"),
        "write_p90_ms": (percentile(outcome.write_ms, 90), "ms"),
        "space_amp": (outcome.space_amp, "ratio"),
        "peak_rss_mb": (outcome.extra["peak_rss_mb"], "MB"),
    }


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(span: Span, children: dict[int, list[Span]]) -> dict[str, float]:
    """Seconds of *span*'s duration charged to each layer (sums to it)."""
    out: dict[str, float] = defaultdict(float)
    covered = 0.0
    cross = []
    for child in children.get(span.sid, ()):
        if child.thread == span.thread:
            for layer, sec in attribute(child, children).items():
                out[layer] += sec
            covered += child.duration
        else:
            cross.append(child)
    if cross:
        end = span.end if span.end is not None else span.start
        union = _union_length(
            [(c.start, c.end if c.end is not None else c.start) for c in cross],
            span.start, end,
        )
        union = min(union, max(0.0, span.duration - covered))
        mix: dict[str, float] = defaultdict(float)
        for child in cross:
            for layer, sec in attribute(child, children).items():
                mix[layer] += sec
        total = sum(mix.values())
        if total > 0:
            for layer, sec in mix.items():
                out[layer] += union * sec / total
        covered += union
    out[span.layer] += max(0.0, span.duration - covered)
    return out


def _tracing_overhead_pct(outcome: Outcome, by_time_slice: bool) -> float:
    """Traced vs untraced latency of the same statements, in percent.

    Per statement kind the occurrences ran traced, untraced, untraced,
    traced (ABBA), so over whole groups of four a drift that is linear in
    time, such as ``grid_ingest``'s growing array, cancels; a kind with
    fewer than four occurrences uses all of them.
    """
    if by_time_slice:
        t = [ms for _k, ms, traced in outcome.samples if traced]
        p = [ms for _k, ms, traced in outcome.samples if not traced]
        return 100.0 * (statistics.median(t) / statistics.median(p) - 1.0)
    by_kind: dict[str, list[tuple[float, bool]]] = defaultdict(list)
    for kind, ms, traced in outcome.samples:
        by_kind[kind].append((ms, traced))
    t_sum = p_sum = 0.0
    for runs in by_kind.values():
        if len(runs) >= 4:
            runs = runs[:len(runs) - len(runs) % 4]
        t = [ms for ms, traced in runs if traced]
        p = [ms for ms, traced in runs if not traced]
        if t and p:
            t_sum += statistics.mean(t)
            p_sum += statistics.mean(p)
    return 100.0 * (t_sum / p_sum - 1.0) if p_sum else 0.0


def per_layer(tracer: Tracer, outcome: Outcome,
              by_time_slice: bool) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics plus a detail dict for the run record."""
    spans = tracer.spans
    children: dict[int, list[Span]] = defaultdict(list)
    by_stmt: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
            by_stmt[span.stmt].append(span)
    roots = [s for s in spans if s.parent is None]
    queries = [r for r in roots if r.attrs.get("kind") != "write"]
    writes = [r for r in roots if r.attrs.get("kind") == "write"]
    n = max(1, len(queries))

    layer_s: dict[str, float] = defaultdict(float)
    coverage = []
    for root in queries:
        charged = attribute(root, children)
        for layer, sec in charged.items():
            layer_s[layer] += sec
        coverage.append(1.0 - charged.get("client", 0.0) / root.duration
                        if root.duration > 0 else 1.0)
    wall = sum(r.duration for r in queries)

    sums: dict[str, float] = defaultdict(float)
    op_time: dict[str, list[float]] = defaultdict(list)
    cells_in = 0
    core_s = 0.0
    cluster_wall_par = 0.0
    storage_busy_in_cluster = 0.0
    parallelism = outcome.extra.get("parallelism", 1)
    for root in queries:
        for span in by_stmt[root.stmt]:
            name, dur = span.name, span.duration
            parent = spans[span.parent]
            if name.startswith("service.verb."):
                sums["round_trips"] += 1
                sums["verb_s"] += dur
                sums["throttled"] += span.attrs.get("throttled", 0)
            elif name == "service.handle":
                sums["handle_total_s"] += dur
                sums["handle_self_s"] += dur - sum(
                    c.duration for c in children.get(span.sid, ())
                    if c.thread == span.thread
                )
            elif name == "service.serialize":
                sums["serialize_s"] += dur
                sums["bytes_out"] += span.attrs.get("bytes", 0)
            elif name in ("query.parse", "query.plan", "query.execute"):
                sums[name] += dur
            elif span.layer == "obs" and parent.layer != "obs":
                sums["obs_s"] += dur
            elif name.startswith("core.op."):
                op_time[name[len("core.op."):]].append(dur)
                if parent.layer != "core":
                    cells_in += span.attrs.get("cells_in", 0)
                    core_s += dur
            elif name == "cluster.op" and parent.name != "cluster.op":
                sums["cluster_op_s"] += dur
                cluster_wall_par += dur * parallelism
                storage_busy_in_cluster += sum(
                    s.duration for s in _descendants(span, children)
                    if s.name == "storage.scan"
                )
            elif name == "storage.scan":
                sums["scan_s"] += dur

    grid_stmts = outcome.extra.get("grid_statements", [])
    totals = {
        key: sum(d[key] for d in grid_stmts)
        for key in ("gather_bytes", "moved_bytes", "buckets_read", "bytes_read",
                    "pruned", "cache_hits", "cache_misses", "evictions")
    }
    imbalance = [
        max(d["cells_scanned"]) / statistics.mean(d["cells_scanned"])
        for d in grid_stmts if sum(d["cells_scanned"]) > 0
    ]
    visited = totals["cache_hits"] + totals["cache_misses"]
    grid_writes = outcome.extra.get("grid_writes", [])
    load_ms = [s.duration * 1e3 for r in writes for s in by_stmt[r.stmt]
               if s.name == "cluster.load"]
    ng = max(1, len(grid_stmts))

    def per(x: float) -> float:
        return x / n

    metrics: dict[str, tuple[float, str]] = {
        "service.round_trips": (per(sums["round_trips"]), "count"),
        "service.wire_ms": (per(sums["verb_s"] - sums["handle_total_s"]) * 1e3, "ms"),
        "service.handle_ms": (per(sums["handle_self_s"]) * 1e3, "ms"),
        "service.serialize_ms": (per(sums["serialize_s"]) * 1e3, "ms"),
        "service.bytes_out": (per(sums["bytes_out"]), "bytes"),
        "service.throttled": (per(sums["throttled"]), "count"),
        "query.parse_ms": (per(sums["query.parse"]) * 1e3, "ms"),
        "query.plan_ms": (per(sums["query.plan"]) * 1e3, "ms"),
        "query.execute_ms": (per(sums["query.execute"]) * 1e3, "ms"),
        "obs.profile_ms": (per(sums["obs_s"]) * 1e3, "ms"),
    }
    for kind in CORE_KINDS:
        calls = op_time.get(kind, [])
        metrics[f"core.op_ms.{kind}"] = (
            statistics.mean(calls) * 1e3 if calls else 0.0, "ms")
    metrics.update({
        "core.us_per_cell": (core_s * 1e6 / cells_in if cells_in else 0.0, "us"),
        "cluster.op_ms": (per(sums["cluster_op_s"]) * 1e3, "ms"),
        "cluster.gather_bytes": (totals["gather_bytes"] / ng, "bytes"),
        "cluster.moved_bytes": (totals["moved_bytes"] / ng, "bytes"),
        "cluster.parallel_efficiency": (
            storage_busy_in_cluster / cluster_wall_par if cluster_wall_par else 0.0,
            "ratio"),
        "cluster.imbalance": (statistics.mean(imbalance) if imbalance else 0.0, "ratio"),
        "cluster.load_ms": (statistics.mean(load_ms) if load_ms else 0.0, "ms"),
        "storage.scan_ms": (per(sums["scan_s"]) * 1e3, "ms"),
        "storage.buckets_read": (totals["buckets_read"] / ng, "count"),
        "storage.bytes_read": (totals["bytes_read"] / ng, "bytes"),
        "storage.prune_ratio": (
            totals["pruned"] / (totals["pruned"] + visited)
            if totals["pruned"] + visited else 0.0, "ratio"),
        "storage.cache_hit_ratio": (
            totals["cache_hits"] / visited if visited else 0.0, "ratio"),
        "storage.cache_evictions": (totals["evictions"] / ng, "count"),
        "storage.write_amp": (
            sum(w["disk_bytes"] for w in grid_writes)
            / sum(w["user_bytes"] for w in grid_writes) if grid_writes else 0.0,
            "ratio"),
        "storage.buckets_per_node": (outcome.extra.get("buckets_per_node", 0.0), "count"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (per(layer_s[layer]) * 1e3, "ms")
    metrics["trace.coverage"] = (
        (wall - layer_s["client"]) / wall if wall else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (
        _tracing_overhead_pct(outcome, by_time_slice), "%")
    by_kind: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for root in queries:
        row = by_kind[root.attrs["kind"]]
        row["statements"] += 1
        row["latency_ms"] += root.duration * 1e3
        for span in by_stmt[root.stmt]:
            if span.name == "service.serialize":
                row["serialize_ms"] += span.duration * 1e3
                row["bytes_out"] += span.attrs.get("bytes", 0)
    for d in grid_stmts:
        by_kind[d["kind"]]["gather_bytes"] += d["gather_bytes"]
        by_kind[d["kind"]]["cache_hits"] += d["cache_hits"]
        by_kind[d["kind"]]["cache_misses"] += d["cache_misses"]
    for row in by_kind.values():
        n_kind = row.pop("statements")
        for key in row:
            row[key] /= n_kind
        row["statements"] = n_kind
    detail = {
        "by_kind": {k: dict(v) for k, v in by_kind.items()},
        "traced_statements": len(queries),
        "traced_writes": len(writes),
        "spans": len(spans),
        "min_statement_coverage": min(coverage) if coverage else 0.0,
        "unaccounted_ms_per_statement": per(layer_s["client"]) * 1e3,
    }
    return metrics, detail


def _descendants(span: Span, children: dict[int, list[Span]]) -> list[Span]:
    out, stack = [], list(children.get(span.sid, ()))
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(children.get(s.sid, ()))
    return out

