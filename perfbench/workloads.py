"""The benchmark's three workloads, driven through the public API.

Each workload builds its database from seeded inputs, starts a
:class:`~repro.service.QueryService`, and drives closed-loop shim
clients: a client sends its next statement only after it has read the
last byte of the previous answer.  Every answer is checked against the
numpy oracle after its latency has been taken.

* ``portal`` — 2 clients, each its own tenant, one-shot
  ``ShimClient.query`` (session per statement, 4 HTTP round trips) on
  E24's 16x16 in-memory array.  Runs for ``seconds``, in 8 time slices.
* ``scan`` — 1 client on a persistent session running whole-array
  statements on a dense 128x128 two-attribute in-memory array.  A fixed
  deck of 8 statements, 5 of them per-cell operators, so the median sits
  inside the per-cell cost mode; the number of decks is fixed from
  ``seconds``, so a faster engine does the same work sooner.
* ``grid_ingest`` — a 4-node, replication-2 grid holding a 3-D sky array
  with unbounded ``t``.  One client runs a fixed seeded sequence of
  cycles, each 4 shim queries then one epoch written through
  ``DistributedArray.load`` in strips of one tile row; the cycle count
  is fixed from ``seconds``.

In a traced run the tracer's wrappers are installed for half of the
statements (an ABBA pattern per statement kind, or per time slice on
``portal``) and removed for the rest, so the traced and untraced
latencies of the same statements give the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from repro import SciDB, define_array
from repro.cluster import BlockCyclicPartitioner
from repro.service import QueryService, ServiceConfig
from repro.service.client import ShimClient, Throttled
from repro.storage.loader import LoadRecord

from oracle import Answer, dense_cells, mismatch
from tracer import Tracer



@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    #: one entry per query statement: (kind, latency_ms, traced)
    samples: list[tuple[str, float, bool]] = field(default_factory=list)
    #: statements per second of in-statement time, summed over clients
    throughput_qps: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    #: latency of each write call of the workload's data load
    write_ms: list[float] = field(default_factory=list)
    space_amp: float = 0.0
    attempted: int = 0
    refused: int = 0
    errors: int = 0
    wrong: int = 0
    #: first few failure messages, for the run record
    problems: list[str] = field(default_factory=list)
    #: workload-specific inputs to the metrics (peak RSS, grid counters)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.refused + self.errors + self.wrong

    def note(self, message: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(message)


@dataclass
class Statement:
    kind: str
    text: str
    expected: Answer


def _abba(occurrence: int) -> bool:
    """Traced on the 1st and 4th of every 4 occurrences (ABBA)."""
    return occurrence % 4 in (0, 3)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _threshold(values: np.ndarray, selectivity: float) -> float:
    """A printable threshold that about *selectivity* of *values* exceed."""
    return float(_fmt(float(np.quantile(values, 1.0 - selectivity))))


class _Checked:
    """Runs one statement, timed from first shim call to last byte, and
    checks the answer afterwards (outside the timed interval)."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.lock = threading.Lock()

    def run(self, stmt: Statement, call: Callable[[], str],
            tracer: Optional[Tracer]) -> Optional[float]:
        out = self.outcome
        body = None
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.statement(stmt.kind):
                    body = call()
            else:
                body = call()
        except Throttled as exc:
            with self.lock:
                out.refused += 1
                out.note(f"refused: {stmt.text}: {exc}")
        except Exception as exc:  # noqa: BLE001 — counted as failed
            with self.lock:
                out.errors += 1
                out.note(f"error: {stmt.text}: {type(exc).__name__}: {exc}")
        latency_ms = (perf_counter() - t0) * 1e3
        with self.lock:
            out.attempted += 1
        if body is None:
            return None
        why = mismatch(body, stmt.expected)
        with self.lock:
            if why is not None:
                out.wrong += 1
                out.note(f"wrong: {stmt.text}: {why}")
                return None
            out.samples.append((stmt.kind, latency_ms, tracer is not None))
        return latency_ms


def _session_call(client: ShimClient, session: str, text: str) -> Callable[[], str]:
    def call() -> str:
        client.execute_query(session, text)
        return client.read_all(session)

    return call


def _setup(build: Callable[[], tuple], outcome: Outcome) -> tuple:
    """One timed set-up; returns the ``(db, service)`` it built."""
    t0 = perf_counter()
    built = build()
    outcome.setup_s.append(perf_counter() - t0)
    return built


def _throwaway_setup(build: Callable[[], tuple], outcome: Outcome,
                     discard: Callable[[Any], None] = lambda db: None) -> None:
    """A timed set-up whose instance is torn down straight away.

    The set-up and write metrics are medians over several set-ups spread
    through the run, so they sample the host's speed over the whole run
    as the statement latencies do, not in one burst at the start.
    """
    db, service = _setup(build, outcome)
    service.stop()
    discard(db)
    del db, service
    gc.collect()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- portal -----------------------------------------------------------------------

PORTAL_SIDE = 16
PORTAL_CLIENTS = 2
PORTAL_SLICES = 8
#: throwaway set-ups after each time slice (25 set-ups in a run)
PORTAL_SETUPS_PER_SLICE = 3


def _portal_statements(rng: np.random.Generator, s1: np.ndarray) -> list[Statement]:
    n = PORTAL_SIDE
    out = []
    for _ in range(8):
        i0, j0 = (int(v) for v in rng.integers(1, n - 4, size=2))
        text = (f"select subsample(M, I >= {i0} and I <= {i0 + 5} "
                f"and J >= {j0} and J <= {j0 + 5})")
        window = s1[i0 - 1:i0 + 5, j0 - 1:j0 + 5]
        out.append(Statement("cutout", text,
                             dense_cells(("I", "J"), {"s1": window})))
    for sel in (0.05, 0.1, 0.25, 0.5) * 2:
        th = _threshold(s1, sel)
        out.append(Statement(
            "filter", f"select filter(M, s1 > {_fmt(th)})",
            dense_cells(("I", "J"), {"s1": s1}, s1 > th),
        ))
    reducers = {"sum": np.sum, "avg": np.mean, "max": np.max, "min": np.min}
    for _ in range(8):
        dim = ("I", "J")[int(rng.integers(2))]
        agg = list(reducers)[int(rng.integers(len(reducers)))]
        values = reducers[agg](s1, axis=1 if dim == "I" else 0)
        out.append(Statement(
            "aggregate", f"select aggregate(M, {{{dim}}}, {agg}(s1))",
            dense_cells((dim,), {agg: values}),
        ))
    return out


def portal(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng([seed, 1])
    s1 = rng.uniform(0.0, 1000.0, (PORTAL_SIDE, PORTAL_SIDE))

    def build():
        db = SciDB()
        db.execute("define array Remote (s1 = float) (I, J)")
        db.execute(f"create M as Remote [{PORTAL_SIDE}, {PORTAL_SIDE}]")
        m = db.lookup("M")
        for i in range(1, PORTAL_SIDE + 1):
            t0 = perf_counter()
            for j in range(1, PORTAL_SIDE + 1):
                m[i, j] = float(s1[i - 1, j - 1])
            outcome.write_ms.append((perf_counter() - t0) * 1e3)
        return db, QueryService(db, ServiceConfig()).start()

    db, service = _setup(build, outcome)
    statements = _portal_statements(rng, s1)
    orders = [rng.permutation(len(statements)) for _ in range(PORTAL_CLIENTS)]
    checked = _Checked(outcome)
    host, port = service.address
    clients = [ShimClient(host, port) for _ in range(PORTAL_CLIENTS)]
    busy = [0.0] * PORTAL_CLIENTS
    done = [0] * PORTAL_CLIENTS
    position = [0] * PORTAL_CLIENTS

    def drive(c: int, stop_at: float, traced: bool) -> None:
        client, tenant = clients[c], f"portal-{c}"
        while perf_counter() < stop_at:
            stmt = statements[orders[c][position[c] % len(statements)]]
            position[c] += 1
            latency = checked.run(
                stmt, lambda: client.query(stmt.text, tenant=tenant),
                tracer if traced else None,
            )
            if latency is not None:
                busy[c] += latency / 1e3
                done[c] += 1

    try:
        for c, client in enumerate(clients):  # warm-up, not measured
            for stmt in statements[:3]:
                client.query(stmt.text, tenant=f"portal-{c}")
        for s in range(PORTAL_SLICES):
            traced = tracer is not None and _abba(s)
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
            stop_at = perf_counter() + seconds / PORTAL_SLICES
            threads = [
                threading.Thread(target=drive, args=(c, stop_at, traced))
                for c in range(PORTAL_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for _ in range(PORTAL_SETUPS_PER_SLICE):
                _throwaway_setup(build, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for client in clients:
            client.close()
        service.stop()
    outcome.throughput_qps = sum(
        n / b for n, b in zip(done, busy) if b > 0
    )
    m = db.lookup("M")
    outcome.space_amp = m.nbytes() / (m.count_present() * 8)
    outcome.extra["peak_rss_mb"] = _peak_rss_mb()
    return outcome


# -- scan -------------------------------------------------------------------------

SCAN_SIDE = 128
#: rows per write call: one row of 32x32 chunks, so every write allocates alike
SCAN_BAND = 32
#: wall time of one deck when this benchmark was added (2-core host); fixes the deck
#: count from --seconds
SCAN_DECK_S = 3.0


def _scan_statements(rng: np.random.Generator, a: np.ndarray,
                     b: np.ndarray) -> list[Statement]:
    planes = {"a": a, "b": b}
    out = []
    for sel in (0.005, 0.05):
        th = _threshold(a, sel)
        out.append(Statement(
            f"filter_a@{sel:g}", f"select filter(P, a > {_fmt(th)})",
            dense_cells(("x", "y"), planes, a > th),
        ))
    for sel in (0.02, 0.1):
        # Independent uniform planes: each term keeps sqrt(sel).
        ta = _threshold(a, sel ** 0.5)
        tb = _threshold(b, sel ** 0.5)
        out.append(Statement(
            f"filter_ab@{sel:g}",
            f"select filter(P, a > {_fmt(ta)} and b > {_fmt(tb)})",
            dense_cells(("x", "y"), planes, (a > ta) & (b > tb)),
        ))
    attr = ("a", "b")[int(rng.integers(2))]
    out.append(Statement(
        "project", f"select project(P, {attr})",
        dense_cells(("x", "y"), {attr: planes[attr]}),
    ))
    coarse = planes[attr].reshape(SCAN_SIDE // 4, 4, SCAN_SIDE // 4, 4).mean(axis=(1, 3))
    out.append(Statement(
        "regrid", f"select regrid(P, [4,4], avg({attr}))",
        dense_cells(("x", "y"), {"avg": coarse}),
    ))
    dim = ("x", "y")[int(rng.integers(2))]
    out.append(Statement(
        "aggregate", f"select aggregate(P, {{{dim}}}, sum({attr}))",
        dense_cells((dim,), {"sum": planes[attr].sum(axis=1 if dim == "x" else 0)}),
    ))
    side = SCAN_SIDE // 4
    x0, y0 = (int(v) for v in rng.integers(1, SCAN_SIDE - side + 2, size=2))
    wa = a[x0 - 1:x0 - 1 + side, y0 - 1:y0 - 1 + side]
    wb = b[x0 - 1:x0 - 1 + side, y0 - 1:y0 - 1 + side]
    th = _threshold(wa, 0.1)
    out.append(Statement(
        "filter_subsample",
        f"select filter(subsample(P, x >= {x0} and x <= {x0 + side - 1} and "
        f"y >= {y0} and y <= {y0 + side - 1}), a > {_fmt(th)})",
        dense_cells(("x", "y"), {"a": wa, "b": wb}, wa > th),
    ))
    return out


def scan(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng([seed, 2])
    a = rng.random((SCAN_SIDE, SCAN_SIDE))
    b = rng.random((SCAN_SIDE, SCAN_SIDE))

    def build():
        db = SciDB()
        db.execute("define array Image (a = float, b = float) (x, y)")
        db.execute(f"create P as Image [{SCAN_SIDE}, {SCAN_SIDE}]")
        p = db.lookup("P")
        for r in range(0, SCAN_SIDE, SCAN_BAND):
            t0 = perf_counter()
            p.set_region((r + 1, 1), {"a": a[r:r + SCAN_BAND], "b": b[r:r + SCAN_BAND]})
            outcome.write_ms.append((perf_counter() - t0) * 1e3)
        return db, QueryService(db, ServiceConfig()).start()

    db, service = _setup(build, outcome)
    statements = _scan_statements(rng, a, b)
    order = rng.permutation(len(statements))
    decks = max(1, round(seconds / SCAN_DECK_S))
    checked = _Checked(outcome)
    client = ShimClient(*service.address)
    seen: dict[str, int] = {}
    busy = 0.0
    try:
        session = client.new_session(tenant="scan")
        for stmt in statements:  # warm-up on the cheap statements
            if stmt.kind in ("regrid", "aggregate"):
                _session_call(client, session, stmt.text)()
        for _ in range(decks):
            for idx in order:
                stmt = statements[idx]
                traced = tracer is not None and _abba(seen.get(stmt.kind, 0))
                seen[stmt.kind] = seen.get(stmt.kind, 0) + 1
                if tracer is not None:
                    tracer.install() if traced else tracer.uninstall()
                latency = checked.run(
                    stmt, _session_call(client, session, stmt.text),
                    tracer if traced else None,
                )
                busy += (latency or 0.0) / 1e3
                _throwaway_setup(build, outcome)
        client.release_session(session)
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.close()
        service.stop()
    done = len(outcome.samples)
    outcome.throughput_qps = done / busy if busy else 0.0
    p = db.lookup("P")
    outcome.space_amp = p.nbytes() / (p.count_present() * 2 * 8)
    outcome.extra["peak_rss_mb"] = _peak_rss_mb()
    return outcome


# -- grid_ingest ------------------------------------------------------------------

GRID_SIDE = 32
GRID_STRIDE = (16, 16, 1)
GRID_NODES = 4
GRID_REPLICATION = 2
GRID_SETUP_EPOCHS = 4
#: set-ups per run, all before the sequence (each loads 4 epochs on disk)
GRID_SETUPS = 5
#: about a quarter of one node's decoded buckets after set-up (4 epochs
#: of 4 dense 16x16 tiles, 2 replicas over 4 nodes, 2304 B per decoded
#: tile): full scans exceed it, one epoch's 2 tiles on a node fit
GRID_CACHE_BYTES = 5_000
GRID_QUERIES_PER_LOAD = 4
GRID_KINDS = ("filter", "agg_x", "agg_t", "regrid", "recent", "cutout")
#: mean wall time of one cycle (4 queries + 1 epoch load) over 16 cycles
#: when this benchmark was added, on a 2-core host; fixes the cycle count from
#: --seconds
GRID_CYCLE_S = 1.875


def _epoch_strips(flux: np.ndarray, t: int) -> list[list[LoadRecord]]:
    """Epoch *t* as strips of one tile row each, one ``load`` call apiece."""
    rows = GRID_STRIDE[0]
    return [
        [LoadRecord((x + 1, y + 1, t), (float(flux[x, y]),))
         for x in range(x0, x0 + rows) for y in range(GRID_SIDE)]
        for x0 in range(0, GRID_SIDE, rows)
    ]


def _grid_statement(kind: str, rng: np.random.Generator,
                    data: np.ndarray) -> Statement:
    t_now = data.shape[2]
    if kind == "filter":
        th = _threshold(data, 0.01)
        return Statement(kind, f"select filter(S, flux > {_fmt(th)})",
                         dense_cells(("x", "y", "t"), {"flux": data}, data > th))
    if kind == "agg_x":
        return Statement(kind, "select aggregate(S, {x}, sum(flux))",
                         dense_cells(("x",), {"sum": data.sum(axis=(1, 2))}))
    if kind == "agg_t":
        return Statement(kind, "select aggregate(S, {t}, avg(flux))",
                         dense_cells(("t",), {"avg": data.mean(axis=(0, 1))}))
    if kind == "regrid":
        k = GRID_SIDE // GRID_STRIDE[0]
        coarse = data.reshape(k, GRID_STRIDE[0], k, GRID_STRIDE[1], t_now).mean(axis=(1, 3))
        return Statement(
            kind,
            f"select regrid(S, [{GRID_STRIDE[0]},{GRID_STRIDE[1]},1], avg(flux))",
            dense_cells(("x", "y", "t"), {"avg": coarse}),
        )
    if kind == "recent":
        return Statement(kind, f"select subsample(S, t >= {t_now})",
                         dense_cells(("x", "y", "t"), {"flux": data[:, :, t_now - 1:]}))
    side = GRID_STRIDE[0]
    x0, y0 = (int(v) for v in rng.integers(1, GRID_SIDE - side + 2, size=2))
    window = data[x0 - 1:x0 - 1 + side, y0 - 1:y0 - 1 + side, :]
    return Statement(
        "cutout",
        f"select subsample(S, x >= {x0} and x <= {x0 + side - 1} and y >= {y0} "
        f"and y <= {y0 + side - 1} and t >= 1 and t <= {t_now})",
        dense_cells(("x", "y", "t"), {"flux": window}),
    )


def _disk_bytes(root: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _grid_counters(grid, array: str) -> dict[str, Any]:
    nodes = [n for n in grid.nodes if n.alive]
    stats = [n.partition(array).stats for n in nodes]
    caches = [n.storage.chunk_cache.stats() for n in nodes
              if n.storage.chunk_cache is not None]
    return {
        "gather_bytes": grid.ledger.total_bytes("gather"),
        "moved_bytes": grid.ledger.total_bytes(),
        "buckets_read": sum(s.buckets_read for s in stats),
        "bytes_read": sum(s.bytes_read for s in stats),
        "pruned": sum(s.buckets_pruned + s.buckets_value_pruned for s in stats),
        "cache_hits": sum(s.cache_hits for s in stats),
        "cache_misses": sum(s.cache_misses for s in stats),
        "evictions": sum(c["evictions"] for c in caches),
        "cells_scanned": [n.counters.snapshot().get("cells_scanned", 0) for n in nodes],
    }


def _delta(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, list):
            out[key] = [x - y for x, y in zip(value, before[key])]
        else:
            out[key] = value - before[key]
    return out


def grid_ingest(seed: int, seconds: float, tracer: Optional[Tracer],
                work_dir: Path) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng([seed, 3])
    cycles = max(1, round(seconds / GRID_CYCLE_S))
    epochs = [rng.gamma(2.0, 50.0, (GRID_SIDE, GRID_SIDE))
              for _ in range(GRID_SETUP_EPOCHS + cycles)]
    schema = define_array("Sky", {"flux": "float"}, ["x", "y", "t"]).bind(
        [GRID_SIDE, GRID_SIDE, "*"]
    )

    built = iter(range(GRID_SETUPS))

    def build():
        db = SciDB(work_dir / f"setup{next(built)}")
        grid = db.create_grid(
            "sky", n_nodes=GRID_NODES, replication=GRID_REPLICATION,
            chunk_cache_bytes=GRID_CACHE_BYTES,
        )
        arr = grid.create_array(
            "S", schema, BlockCyclicPartitioner(GRID_NODES, GRID_STRIDE),
            stride=GRID_STRIDE,
        )
        for t in range(1, GRID_SETUP_EPOCHS + 1):
            for strip in _epoch_strips(epochs[t - 1], t):
                arr.load(strip)
        db.register("S", arr)
        return db, QueryService(db, ServiceConfig()).start()

    for _ in range(GRID_SETUPS - 1):
        _throwaway_setup(build, outcome, _drop_grid_db)
    db, service = _setup(build, outcome)
    grid = db.grid("sky")
    arr = grid.get_array("S")
    root = db.directory
    loaded = GRID_SETUP_EPOCHS
    checked = _Checked(outcome)
    client = ShimClient(*service.address)
    seen: dict[str, int] = {}
    busy = 0.0
    per_statement: list[dict] = []
    writes: list[dict] = []
    try:
        session = client.new_session(tenant="grid")
        for q in range(cycles * GRID_QUERIES_PER_LOAD):
            kind = GRID_KINDS[q % len(GRID_KINDS)]
            data = np.stack(epochs[:loaded], axis=2)
            stmt = _grid_statement(kind, rng, data)
            traced = tracer is not None and _abba(seen.get(kind, 0))
            seen[kind] = seen.get(kind, 0) + 1
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
                before = _grid_counters(grid, "S")
            latency = checked.run(
                stmt, _session_call(client, session, stmt.text),
                tracer if traced else None,
            )
            busy += (latency or 0.0) / 1e3
            if traced:
                per_statement.append(
                    {**_delta(_grid_counters(grid, "S"), before), "kind": kind}
                )
            if q % GRID_QUERIES_PER_LOAD == GRID_QUERIES_PER_LOAD - 1:
                loaded += 1
                for records in _epoch_strips(epochs[loaded - 1], loaded):
                    traced = tracer is not None and _abba(seen.get("write", 0))
                    seen["write"] = seen.get("write", 0) + 1
                    if tracer is not None:
                        tracer.install() if traced else tracer.uninstall()
                        disk_before = _disk_bytes(root)
                    t0 = perf_counter()
                    if traced:
                        with tracer.statement("write"):
                            arr.load(records)
                    else:
                        arr.load(records)
                    outcome.write_ms.append((perf_counter() - t0) * 1e3)
                    if traced:
                        writes.append({
                            "disk_bytes": _disk_bytes(root) - disk_before,
                            "user_bytes": len(records) * 8,
                        })
        client.release_session(session)
    finally:
        if tracer is not None:
            tracer.uninstall()
        client.close()
        service.stop()
    outcome.throughput_qps = len(outcome.samples) / busy if busy else 0.0
    outcome.space_amp = _disk_bytes(root) / (loaded * GRID_SIDE * GRID_SIDE * 8)
    outcome.extra.update(
        peak_rss_mb=_peak_rss_mb(),
        grid_statements=per_statement,
        grid_writes=writes,
        buckets_per_node=float(np.mean(
            [n.partition("S").bucket_count() for n in grid.nodes if n.alive]
        )),
        parallelism=grid.parallelism,
    )
    _drop_grid_db(db)
    return outcome


def _drop_grid_db(db: SciDB) -> None:
    """Close the write-ahead logs of a finished grid database and delete it."""
    for name in db.grids():
        for node in db.grid(name).nodes:
            if node.wal is not None:
                node.wal.close()
    if db.wal is not None:
        db.wal.close()
    shutil.rmtree(db.directory, ignore_errors=True)
