"""The simulated shared-nothing grid and its movement ledger (Section 2.7).

A :class:`Grid` owns N :class:`~repro.cluster.node.Node` workers and a
:class:`DataMovementLedger`.  Every byte that crosses a node boundary —
load routing, repartitioning, join shuffles, aggregate partials, result
gathers, uncertainty replication — is recorded with a reason, so the
partitioning experiments (E6/E7) report exact, deterministic movement
instead of noisy wall-clock proxies.

Distributed operators implemented on :class:`DistributedArray`:

* ``load`` / ``write`` — route cells by the array's partitioner, to every
  replica site when ``replication`` > 1 (extra copies metered as
  ``"replication"``);
* ``load_uncertain`` — PanSTARRS-style boundary replication: an
  observation whose true position may fall in a neighbouring partition is
  stored redundantly in every candidate partition, so "uncertain spatial
  joins can be performed without moving data elements" (Section 2.13);
* ``subsample`` — window scans with per-node R-tree pruning;
* ``aggregate`` — local partial aggregation, coordinator merge (algebraic
  aggregates move only partial states; holistic ones fall back to raw
  shipment);
* ``sjoin`` — local joins when the operands are co-partitioned, otherwise
  an explicit repartition of the right operand first;
* ``repartition`` — migrate to a new partitioning scheme, as the paper's
  time-varying partitioning requires.

Fault tolerance (the common case on a grid "sufficiently large that there
will always be broken nodes"): reads are organised around *logical
partitions* — partition ``p`` is the set of cells whose primary site is
``p``, and with k-way replication it is stored on every site of
``placement.chain(p, n, k)``.  A query that finds a replica dead — even
mid-scan, when a scheduled fault fires on a metered transfer — retries
the partition on the next site of the chain under the grid's
:class:`~repro.cluster.resilience.ResiliencePolicy`: bounded attempts
with capped, seeded-jitter backoff (recorded in
:attr:`Grid.failover_log`), per-node circuit breakers that skip
repeatedly-failing nodes straight to their replicas, optional hedged
backup reads against the next replica (exactly-once preserved by
buffered metering — only the winning attempt's meters commit), and
cooperative deadlines propagated into every per-partition task.  Only
when *every* replica of some partition is dead does the query raise
:class:`~repro.core.errors.QuorumError` — unless called with
``degraded=True`` (or ``on_unavailable="partial"``), which instead
returns the partial answer plus a
:class:`~repro.cluster.replication.CoverageReport`.
:meth:`Grid.rebuild_node` brings a crashed node back by replaying its
per-node WAL and copying anything missing (metered ``"rebuild"``) from
surviving replicas.  Fault drills and parallel fan-out compose: the
injector is thread-safe and keyed-deterministic, so a drill runs at full
``parallelism`` rather than forcing the grid serial.

The *write* path gets the same treatment via
:meth:`DistributedArray.load_checkpointed`: the load stream is divided
into numbered batches committed atomically per replica chain (cursor
files + WAL ``load_commit`` records), malformed records are quarantined
instead of aborting the stream, transient I/O faults are retried with
recorded backoff, a substream whose primary dies mid-load fails over to
the replica chain (metered ``"load_failover"``), and a killed loader
resumes from the last committed batch with idempotent replay — see
:mod:`repro.storage.loader`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..core.array import SciArray
from ..core.cells import Cell
from ..core.datatypes import ScalarType
from ..core.errors import (
    DeadlineExceededError,
    GridError,
    NodeFailedError,
    PartitioningError,
    QuorumError,
    SchemaError,
    StorageError,
    TransientIOError,
)
from ..core.ops import content, structural as structural_ops
from ..core.schema import ArraySchema
from ..core.udf import UserAggregate
from ..core.uncertainty import PositionUncertainty
from ..obs import tracing
from ..obs.recorder import emit as _flight_emit
from ..storage.loader import BulkLoader, LoadRecord, LoadReport
from ..storage.quarantine import QuarantineStore
from .faults import FailoverEvent, FaultInjector
from .node import Node
from .partitioning import Partitioner
from .resilience import (
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    MeterBuffer,
    ResiliencePolicy,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    sleep_under_deadline,
)
from .rebalance import Migration, Rebalancer, RebalanceReport
from .scheduler import PartitionScheduler, default_parallelism
from .replication import (
    ChainedDeclusteringPlacement,
    CoverageReport,
    DegradedResult,
    RebuildReport,
    ReplicaPlacement,
)

__all__ = ["Transfer", "DataMovementLedger", "DistributedArray", "Grid"]

Coords = tuple[int, ...]

#: Coordinator pseudo-site in ledger entries.
COORDINATOR = -1


def _wants_partial(on_unavailable: str) -> bool:
    """Validate an ``on_unavailable`` mode; True for ``"partial"``."""
    if on_unavailable not in ("raise", "partial"):
        raise GridError(
            f"on_unavailable must be 'raise' or 'partial', "
            f"got {on_unavailable!r}"
        )
    return on_unavailable == "partial"


def _answer(
    out: SciArray, partial: bool, partitions: int, missing: list
) -> "SciArray | DegradedResult":
    """*out*, or with *partial* set, *out* with its coverage report."""
    if not partial:
        return out
    return DegradedResult(out, CoverageReport(partitions, tuple(missing)))


def _merge_into(out: SciArray, part: SciArray) -> None:
    """Copy *part*'s cells into *out* (same schema, any chunk grid) chunk
    by chunk; cells *out* already holds win."""
    for chunk in part.chunks():
        out.set_region(chunk.origin, chunk.data, state=chunk.state)


@dataclass(frozen=True)
class Transfer:
    """One metered inter-node transfer."""

    src: int
    dst: int
    nbytes: int
    reason: str


class DataMovementLedger:
    """Append-only record of all inter-node traffic.

    Besides delivered transfers, the ledger tracks *dropped* ones —
    deliveries addressed to a dead node or eaten by the fault injector —
    so injected faults stay observable in the same accounting that the
    partitioning experiments use.
    """

    def __init__(self) -> None:
        self.transfers: list[Transfer] = []
        self.dropped: list[Transfer] = []
        #: Optional hook called with each recorded Transfer (the fault
        #: injector's simulated clock ticks here).
        self.on_record: Optional[Callable[[Transfer], None]] = None
        # Scheduler workers meter gathers concurrently; the log append and
        # the injector tick must stay one atomic step so fault ordering is
        # a function of the transfer sequence, not thread interleaving.
        self._lock = threading.Lock()

    def record(self, src: int, dst: int, nbytes: int, reason: str) -> None:
        if src != dst:  # local work is free by definition of shared-nothing
            transfer = Transfer(src, dst, nbytes, reason)
            with self._lock:
                self.transfers.append(transfer)
                if self.on_record is not None:
                    self.on_record(transfer)
            # Whatever operator span is open absorbs this movement, so
            # per-operator bytes_moved reconciles with the ledger delta
            # by construction.
            tracing.add_current_pair("bytes_moved", nbytes, "transfers", 1)

    def record_dropped(self, src: int, dst: int, nbytes: int, reason: str) -> None:
        with self._lock:
            self.dropped.append(Transfer(src, dst, nbytes, reason))
        tracing.add_current("bytes_dropped", nbytes)

    def total_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.transfers if reason is None or t.reason == reason
        )

    def dropped_bytes(self, reason: Optional[str] = None) -> int:
        return sum(
            t.nbytes for t in self.dropped if reason is None or t.reason == reason
        )

    def by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.transfers:
            out[t.reason] = out.get(t.reason, 0) + t.nbytes
        return out

    def reset(self) -> None:
        self.transfers.clear()
        self.dropped.clear()


def _cell_nbytes(schema: ArraySchema) -> int:
    """Wire-size estimate of one cell: coords + attribute payload."""
    size = 8 * schema.ndim
    for a in schema.attributes:
        if isinstance(a.type, ScalarType) and a.type.numpy_dtype != object:
            size += a.type.numpy_dtype.itemsize
        else:
            size += 32
    return size


class DistributedArray:
    """One array partitioned across the grid's nodes, ``k`` replicas deep."""

    def __init__(
        self,
        grid: "Grid",
        name: str,
        schema: ArraySchema,
        partitioner: Partitioner,
        replication: int = 1,
        placement: Optional[ReplicaPlacement] = None,
    ) -> None:
        if partitioner.n_sites != len(grid.nodes):
            raise PartitioningError(
                f"partitioner targets {partitioner.n_sites} sites, grid has "
                f"{len(grid.nodes)} nodes"
            )
        self.grid = grid
        self.name = name
        self.schema = schema
        self.partitioner = partitioner
        self.replication = replication
        self.placement = placement or ChainedDeclusteringPlacement()
        # Validate the chain for every partition up front.
        for p in partitioner.sites():
            self.chain_under(partitioner, p)
        self.cell_nbytes = _cell_nbytes(schema)
        #: in-flight elastic migration (cluster/rebalance.py), or None.
        #: While set, writes land in both homes and reads may
        #: dual-resolve against the new placement.
        self._migration: Optional["Migration"] = None
        # Per-dimension high-water marks for unbounded dimensions,
        # maintained on every stored delivery (under the grid's deliver
        # lock) — so _extent() is O(1) instead of a full rescan.
        self._dim_highwater: list[int] = [0] * schema.ndim

    # -- replica routing ---------------------------------------------------------

    def partitions(self) -> tuple[int, ...]:
        """Logical partition ids that can hold cells — every site for the
        classic partitioners, only ring members for membership-aware
        ones (a drained node's partition is empty by construction and
        must not be read or counted against coverage)."""
        return tuple(self.partitioner.sites())

    def chain_under(self, partitioner: Partitioner, p: int) -> tuple[int, ...]:
        """Replica chain for partition *p* under an arbitrary scheme.

        Membership-aware partitioners own their chains (chained
        declustering over ring members, never placing a replica on a
        drained site); the classic ones use the array's placement over
        the full site range.
        """
        chain_sites = getattr(partitioner, "chain_sites", None)
        if chain_sites is not None:
            return chain_sites(p, self.replication)
        return self.placement.chain(p, partitioner.n_sites, self.replication)

    def partition_chain(self, p: int) -> tuple[int, ...]:
        """Replica chain (primary first) for logical partition *p*."""
        return self.chain_under(self.partitioner, p)

    def replica_sites(self, coords: Coords) -> tuple[int, ...]:
        return self.partition_chain(self.partitioner.site_of(coords))

    def _note_coords(self, coords: Coords) -> None:
        """Advance the per-dimension high-water marks (grid.deliver calls
        this under its delivery lock for every stored cell)."""
        hw = self._dim_highwater
        for i, c in enumerate(coords):
            if c > hw[i]:
                hw[i] = c

    # -- writes ------------------------------------------------------------------

    def write(self, coords: Coords, values: Optional[tuple]) -> None:
        """Route one cell to all of its replica sites.

        The primary copy is metered as ``"load"``, the extras as
        ``"replication"``.  Delivery is fire-and-forget: a transfer lost
        in flight (an injected drop, or a node crashing on this very
        tick) loses that copy silently, like a real lossy fabric.  Only
        when *every* replica site is already dead — no copy could
        possibly land — does the write raise :class:`QuorumError`.
        """
        sites = self.replica_sites(coords)
        if not any(self.grid.nodes[s].alive for s in sites):
            raise QuorumError(
                f"write {coords} to {self.name!r}: every replica site of "
                f"{sites} is dead"
            )
        for i, site in enumerate(sites):
            reason = "load" if i == 0 else "replication"
            self.grid.deliver(
                COORDINATOR, site, self.cell_nbytes, reason,
                self.name, coords, values,
            )
        self._dual_write(coords, values)

    def _dual_write(self, coords: Coords, values: Optional[tuple]) -> None:
        """During an elastic migration, land the write in its *new* homes
        too (metered ``"rebalance_dual"``), so no interleaving of ticks
        and writes can lose an update: whichever placement ends up
        serving after cutover-or-abort already has the cell."""
        mig = self._migration
        if mig is None:
            return
        old_sites = set(self.replica_sites(coords))
        for site in mig.new_chain(coords):
            if site in old_sites:
                continue
            try:
                if self.grid.deliver(
                    COORDINATOR, site, self.cell_nbytes, "rebalance_dual",
                    self.name, coords, values,
                ):
                    mig.note_delivered(coords, site)
            except TransientIOError:
                # Copy lost at the receiving disk: pre-cutover
                # verification re-queues it from the old home.
                pass
        mig.note_write(coords)

    def load(self, records: Iterable[LoadRecord]) -> int:
        n = 0
        for rec in records:
            self.write(rec.coords, rec.values)
            n += 1
        self.flush()
        return n

    def write_failover(self, coords: Coords,
                       values: Optional[tuple]) -> tuple[int, bool]:
        """Write one cell, failing the serving copy over past dead sites.

        Unlike the fire-and-forget :meth:`write`, the *serving* copy of a
        cell whose primary is dead moves to the first surviving site of
        the replica chain — PR 1's placement, now used on the write path —
        metered under the ``"load_failover"`` ledger category.  Copies to
        other chain sites stay ``"replication"``; deliveries addressed to
        dead sites are recorded as dropped, exactly as :meth:`write` does.
        Returns ``(serving_site, failed_over)``; raises
        :class:`QuorumError` only when the chain is fully dead.
        """
        sites = self.replica_sites(coords)
        serving = next(
            (s for s in sites if self.grid.nodes[s].alive), None
        )
        if serving is None:
            raise QuorumError(
                f"write {coords} to {self.name!r}: every replica site of "
                f"{sites} is dead"
            )
        failed_over = serving != sites[0]
        for site in sites:
            if site == serving:
                reason = "load_failover" if failed_over else "load"
            else:
                reason = "replication"
            self.grid.deliver(
                COORDINATOR, site, self.cell_nbytes, reason,
                self.name, coords, values,
            )
        self._dual_write(coords, values)
        return serving, failed_over

    def load_checkpointed(
        self,
        stream: Iterable[LoadRecord],
        batch_size: int = 64,
        load_epoch: int = 0,
        tolerant: bool = True,
        quarantine: Optional[QuarantineStore] = None,
        max_retries: int = 3,
    ) -> LoadReport:
        """Checkpointed, fault-tolerant, resumable bulk load (Section 2.8).

        The stream is divided into numbered batches routed to per-partition
        substreams; each batch commits atomically on every surviving site
        of the partition's replica chain (cursor file + WAL ``load_commit``
        record).  The load survives:

        * **malformed records** — quarantined with reason + offset
          (``tolerant=True``), surfaced in the returned
          :class:`~repro.storage.loader.LoadReport`;
        * **transient I/O faults** — bounded retries with recorded
          exponential backoff;
        * **node death mid-load** — the substream fails over to the
          replica chain (``"load_failover"`` in the ledger);
          :class:`QuorumError` only when a chain is fully dead;
        * **loader crashes** — re-drive the same stream with the same
          ``load_epoch``: committed batches are skipped per site, the
          in-flight batch replays idempotently, and the result is
          cell-for-cell identical to an uninterrupted load.
        """
        sinks = {
            p: _PartitionLoadSink(self, p)
            for p in self.partitions()
        }
        faults = self.grid.faults
        latency_before = self.grid.store_latency_ms
        loader = BulkLoader(
            sinks,
            route=self.partitioner.site_of,
            batch_size=batch_size,
            load_epoch=load_epoch,
            tolerant=tolerant,
            quarantine=quarantine,
            max_retries=max_retries,
            backoff_base_ms=self.grid.backoff_base_ms,
            backoff_max_ms=self.grid.backoff_max_ms,
            on_record=faults.on_load_record if faults is not None else None,
        )
        with loader:
            loader.load(stream)
        report = loader.report()
        report.store_latency_ms = (
            self.grid.store_latency_ms - latency_before
        )
        return report

    def load_uncertain(
        self,
        observations: Iterable[tuple[tuple[float, ...], tuple]],
        uncertainty: PositionUncertainty,
    ) -> int:
        """Load (position, values) observations with boundary replication.

        Each observation is stored in its home cell on every site that owns
        one of its candidate cells — plus, with ``replication`` > 1, the
        home cell's replica chain; copies beyond the home site are metered
        with reason ``"replication"``.
        """
        n = 0
        for position, values in observations:
            home = uncertainty.home_cell(position)
            sites = {self.partitioner.site_of(c)
                     for c in uncertainty.candidate_cells(position)}
            replicas = self.replica_sites(home)
            sites.update(replicas)
            home_site = replicas[0]
            if not any(self.grid.nodes[s].alive for s in sites):
                raise QuorumError(
                    f"uncertain load at {home}: every candidate site of "
                    f"{sorted(sites)} is dead"
                )
            for site in sorted(sites):
                reason = "load" if site == home_site else "replication"
                self.grid.deliver(
                    COORDINATOR, site, self.cell_nbytes, reason,
                    self.name, home, values,
                )
            n += 1
        self.flush()
        return n

    def flush(self) -> None:
        for node in self.grid.alive_nodes():
            node.partition(self.name).flush()

    # -- partition reads with failover ---------------------------------------------

    def _attempt_read(
        self,
        site: int,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attempt: int,
        deadline: Optional[Deadline],
        buf: Optional[MeterBuffer] = None,
        attr_ranges: Optional[dict] = None,
    ) -> SciArray:
        """One read attempt of partition *p* against a single *site*.

        Sleeps the modeled fetch latency plus any injected slow-read
        penalty (deadline-aware slices), then reads the site's partition
        as one chunked array and keeps the cells whose primary is *p*,
        checking the deadline at every chunk.  Metering goes to
        the grid's ledger/counters directly, or into *buf* when this is a
        hedged attempt whose meters must stay private until it wins.

        Raises :class:`NodeFailedError` (node died, possibly mid-scan),
        :class:`TransientIOError` (injected read fault), or
        :class:`DeadlineExceededError` — classification is the caller's
        job.
        """
        grid = self.grid
        node = grid.nodes[site]
        faults = grid.faults
        penalty_ms = 0.0
        if faults is not None:
            # May raise TransientIOError (scheduled read burst).
            penalty_ms = faults.intercept_read(site, p, attempt)
        wait_ms = grid.fetch_latency_ms + penalty_ms
        if wait_ms > 0.0:
            # Modeled RPC round trip (plus injected slowness) to the
            # serving site.  A real sleep (not accounting): it releases
            # the GIL, so concurrent partition fetches overlap under the
            # scheduler exactly as network waits would — and it is sliced
            # so a slow site cannot carry the query past its deadline.
            sleep_under_deadline(
                wait_ms, deadline,
                what=f"fetch of partition {p} from node {site}",
            )
        if buf is None:
            record = grid.ledger.record
            bump = node.counters.add
        else:
            record = buf.record
            bump = lambda name, n=1: buf.counter(node, name, n)  # noqa: E731
        what = f"scan of partition {p} on node {site}"
        part = self.partitioner.split(
            node.scan_partition(self.name, window, attr_ranges),
            visit=lambda: deadline is not None and deadline.check(what),
        ).get(p, SciArray(self.schema, name=self.name))
        n = part.count_occupied()
        if per_cell_reason is not None and faults is not None:
            # Per-cell metering exists so the injector's transfer clock
            # ticks cell by cell: a scheduled kill can land mid-transfer
            # and exercise the partial-read-discard path.  Without an
            # injector the clock has no observer, and per-cell ledger and
            # counter locks would be the hot spot under parallel fan-out,
            # so a gather is one bulk transfer per partition (same bytes).
            for _ in range(n):
                node.check_alive()
                bump("cells_scanned")
                record(site, COORDINATOR, self.cell_nbytes, per_cell_reason)
            return part
        # Local (un-gathered) reads count as scans too.
        bump("cells_scanned", n)
        if per_cell_reason is not None and n:
            record(site, COORDINATOR, n * self.cell_nbytes, per_cell_reason)
        return part

    def _hedge_backup_site(
        self, chain: tuple[int, ...], primary: int
    ) -> Optional[int]:
        """The replica a hedged read would back *primary* up with: the
        next alive site of the chain (wrapping) whose breaker admits a
        request; ``None`` when the chain offers no backup."""
        grid = self.grid
        start = chain.index(primary)
        for offset in range(1, len(chain)):
            site = chain[(start + offset) % len(chain)]
            if site == primary or not grid.nodes[site].alive:
                continue
            if grid.breakers[site].allow():
                return site
        return None

    def _hedged_attempt(
        self,
        site: int,
        backup: int,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attempt: int,
        deadline: Optional[Deadline],
        attr_ranges: Optional[dict] = None,
    ) -> tuple[int, SciArray]:
        """Read partition *p* from *site*, hedging against *backup*.

        The primary attempt runs in a helper thread, metering into a
        private :class:`MeterBuffer`.  If it has not answered within the
        hedge delay, a backup attempt is launched against *backup* and
        the first success wins; the winner's buffer is committed (on this
        thread, so the open operator span absorbs the movement) and the
        loser's is discarded — exactly-once accounting by construction.
        Each attempt settles its own site's breaker.  Raises the primary
        attempt's failure only after *both* attempts have failed.
        """
        grid = self.grid
        policy = grid.resilience
        results: "queue.Queue[tuple[int, Any, Optional[BaseException]]]" = (
            queue.Queue()
        )

        def run(attempt_site: int) -> None:
            buf = MeterBuffer()
            try:
                part = self._attempt_read(
                    attempt_site, p, window, per_cell_reason,
                    attempt, deadline, buf, attr_ranges,
                )
            except BaseException as exc:  # classified by the consumer
                results.put((attempt_site, None, exc))
            else:
                results.put((attempt_site, (part, buf), None))

        threading.Thread(
            target=run, args=(site,),
            name=f"repro-hedge-p{p}", daemon=True,
        ).start()
        launched = [site]
        delay_s = (policy.hedge.delay_ms or 0.0) / 1e3
        failures: list[tuple[int, BaseException]] = []
        deadline_exc: Optional[DeadlineExceededError] = None
        while True:
            try:
                timeout: Optional[float]
                if len(launched) == 1:
                    timeout = delay_s
                elif deadline is not None:
                    timeout = max(deadline.remaining_ms(), 1.0) / 1e3
                else:
                    timeout = None
                got = results.get(timeout=timeout)
            except queue.Empty:
                if len(launched) == 1:
                    # Hedge delay elapsed: launch the backup read.
                    grid._count_resilience("hedges")
                    tracing.add_current("hedges", 1)
                    threading.Thread(
                        target=run, args=(backup,),
                        name=f"repro-hedge-p{p}b", daemon=True,
                    ).start()
                    launched.append(backup)
                    continue
                # Both in flight and the deadline ran out while waiting.
                grid._count_resilience("deadline_misses")
                raise DeadlineExceededError(
                    deadline.budget_ms if deadline is not None else 0.0,
                    f"hedged read of partition {p}",
                )
            attempt_site, payload, exc = got
            if exc is None:
                part, buf = payload
                buf.commit(grid)
                grid.breakers[attempt_site].record_success()
                if attempt_site != site:
                    grid._count_resilience("hedge_wins")
                    tracing.add_current("hedge_wins", 1)
                return attempt_site, part
            if isinstance(exc, DeadlineExceededError):
                grid.breakers[attempt_site].abandon()
                deadline_exc = exc
            elif policy.retry.retryable(exc):
                grid.breakers[attempt_site].record_failure()
                failures.append((attempt_site, exc))
            else:
                grid.breakers[attempt_site].abandon()
                raise exc
            if len(launched) == 1:
                # Primary failed before the hedge fired: no point hedging
                # a request we can simply retry on the next chain site.
                break
            if len(failures) + (deadline_exc is not None) >= len(launched):
                break
        # The caller logs the *primary* site's failover when we raise; any
        # other failed attempt is logged here, attributed to its own site.
        for failed_site, _exc in failures:
            if failed_site != site:
                grid._log_failover(self.name, p, failed_site, attempt)
        if deadline_exc is not None:
            # Out of time beats out of retries: the deadline propagates.
            grid._count_resilience("deadline_misses")
            raise deadline_exc
        raise next((e for s, e in failures if s == site), failures[0][1])

    def _read_partition(
        self,
        p: int,
        window: Optional[tuple[Coords, Coords]] = None,
        per_cell_reason: Optional[str] = None,
        degraded: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> tuple[Optional[int], Optional[SciArray]]:
        """Read logical partition *p* from the first surviving replica,
        under the grid's :class:`~repro.cluster.resilience.ResiliencePolicy`.

        Walks the replica chain for up to ``retry.max_attempts`` passes.
        Per attempt: the ambient deadline is checked (cooperative
        cancellation), dead nodes are skipped (logged as failovers with
        capped, seeded-jitter backoff), nodes whose circuit breaker is
        open are skipped straight to their replicas (except on the final
        pass, where the breaker is forced as a half-open probe so an open
        breaker can never manufacture a :class:`QuorumError` against a
        reachable replica), and — when hedging is enabled and a backup
        replica exists — a backup read races the primary after the hedge
        delay.  A node dying *mid-scan* discards the partial read and
        fails over; transient read faults are absorbed the same way.

        Returns ``(serving_site, part)``, the cells whose primary is *p* as
        one chunked array — which both deduplicates replicas and makes
        per-partition reads exactly-once for aggregation.  With
        ``per_cell_reason`` set, each returned cell is metered as a
        transfer from the serving site to the coordinator.

        Raises :class:`QuorumError` when the chain is exhausted, or
        returns ``(None, None)`` instead if *degraded* is True;
        :class:`DeadlineExceededError` always propagates.
        """
        chain = self.partition_chain(p)
        grid = self.grid
        policy = grid.resilience
        deadline = current_deadline()
        attempt = 0
        for pass_no in range(1, policy.retry.max_attempts + 1):
            final_pass = pass_no == policy.retry.max_attempts
            for site in chain:
                attempt += 1
                if deadline is not None and deadline.expired:
                    grid._count_resilience("deadline_misses")
                    tracing.add_current("deadline_misses", 1)
                    deadline.check(f"read of partition {p}")
                node = grid.nodes[site]
                if not node.alive:
                    grid._log_failover(self.name, p, site, attempt)
                    continue
                breaker = grid.breakers[site]
                if not breaker.allow(force=final_pass):
                    grid._count_resilience("breaker_skips")
                    tracing.add_current("breaker_skips", 1)
                    continue
                backup = (
                    self._hedge_backup_site(chain, site)
                    if policy.hedge.enabled else None
                )
                try:
                    if backup is not None:
                        served, part = self._hedged_attempt(
                            site, backup, p, window, per_cell_reason,
                            attempt, deadline, attr_ranges,
                        )
                    else:
                        part = self._attempt_read(
                            site, p, window, per_cell_reason,
                            attempt, deadline, attr_ranges=attr_ranges,
                        )
                        breaker.record_success()
                        served = site
                except DeadlineExceededError:
                    if backup is None:
                        # The budget ran out, not the node: don't judge it.
                        breaker.abandon()
                        grid._count_resilience("deadline_misses")
                    tracing.add_current("deadline_misses", 1)
                    raise
                except Exception as exc:
                    if not policy.retry.retryable(exc):
                        if backup is None:
                            breaker.abandon()
                        raise
                    if backup is None:
                        breaker.record_failure()
                    # Failed over: charge the policy's capped backoff.
                    grid._log_failover(self.name, p, site, attempt)
                    continue
                if served != chain[0]:
                    grid.nodes[served].counters.add("failovers_served")
                tracing.mark_current("nodes", served)
                tracing.add_current("cells_scanned", part.count_occupied())
                return served, part
        fallback = self._dual_resolve_read(
            p, window, per_cell_reason, attr_ranges
        )
        if fallback is not None:
            return fallback
        if degraded:
            return None, None
        raise QuorumError(
            f"partition {p} of {self.name!r}: no surviving replica among "
            f"sites {chain} after {attempt} attempts"
        )

    def _dual_resolve_read(
        self,
        p: int,
        window: Optional[tuple[Coords, Coords]],
        per_cell_reason: Optional[str],
        attr_ranges: Optional[dict] = None,
    ) -> Optional[tuple[int, SciArray]]:
        """Serve partition *p* from the migration's *new* homes after the
        old chain is exhausted.

        During an elastic migration every already-moved (or dual-written)
        cell also lives at its new-placement sites; when the old chain is
        fully dead the read fails over to those copies.  Exactly-once is
        preserved: only cells whose *old* primary is *p* are served (the
        same dedup rule every chain read applies), each at most once; and
        metering follows the PR-6 :class:`MeterBuffer` pattern — buffered
        per contributing site and committed all-or-nothing, so a partial
        union scan that cannot cover the partition meters nothing.  The
        deadline is checked at every chunk visited.

        Returns ``None`` (not an error) when there is no migration or the
        new homes cannot account for every known cell of *p* — the caller
        then degrades or raises :class:`QuorumError` exactly as before.
        """
        mig = self._migration
        if mig is None:
            return None
        grid = self.grid
        deadline = current_deadline()
        buf = MeterBuffer()
        got = SciArray(self.schema, name=self.name)
        per_site: dict[int, int] = {}
        for site in mig.new_partitioner.sites():
            node = grid.nodes[site]
            if not node.alive:
                continue
            what = f"dual-resolve of partition {p} on node {site}"
            try:
                part = self.partitioner.split(
                    node.scan_partition(self.name, window, attr_ranges),
                    visit=lambda: deadline is not None and deadline.check(what),
                ).get(p)  # cells of old partition p only
            except (NodeFailedError, TransientIOError):
                continue  # another member may still cover these cells
            if part is None:
                continue
            for coords, _cell in part.cells():
                if not mig.trusted(coords, site):
                    part.delete(coords)  # stale resurrection: never serve it
            before = got.count_occupied()
            _merge_into(got, part)  # earlier members keep their cells
            if got.count_occupied() > before:
                per_site[site] = got.count_occupied() - before
        # Completeness: every cell the migration knows belongs to p (and
        # the window) must have been found, else the answer would be
        # silently partial — fall back to the ordinary failure path.
        with mig._lock:
            known = list(mig.known)
        for coords in known:
            if self.partitioner.site_of(coords) != p:
                continue
            if window is not None and not all(
                l <= c <= h
                for c, l, h in zip(coords, window[0], window[1])
            ):
                continue
            if not got.exists(coords):
                return None
        # Commit the buffered accounting only now that the read is known
        # complete: per-site bulk meters plus scan counters.
        for site, count in per_site.items():
            buf.counter(grid.nodes[site], "cells_scanned", count)
            if per_cell_reason is not None:
                buf.record(
                    site, COORDINATOR,
                    count * self.cell_nbytes, per_cell_reason,
                )
        buf.commit(grid)
        grid._count_resilience("dual_reads")
        served = (
            max(per_site, key=lambda s: (per_site[s], -s))
            if per_site
            else next(
                (
                    s for s in mig.new_partitioner.sites()
                    if grid.nodes[s].alive
                ),
                None,
            )
        )
        if served is None:
            return None
        tracing.mark_current("nodes", served)
        tracing.add_current("cells_scanned", got.count_occupied())
        tracing.add_current("dual_reads", 1)
        grid.nodes[served].counters.add("failovers_served")
        return served, got

    def _read_partitions(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        per_cell_reason: Optional[str] = None,
        degraded: bool = False,
        partitions: Optional[Sequence[int]] = None,
        tolerate_deadline: bool = False,
        attr_ranges: Optional[dict] = None,
        local: Optional[Callable[[SciArray], Any]] = None,
    ) -> list[tuple[Optional[int], Any]]:
        """Fan :meth:`_read_partition` across partitions via the scheduler,
        running *local* (if given) on each partition array in the worker
        that read it, at its serving site.

        Results come back in partition order regardless of which worker
        finished first, so every caller merges exactly as the serial path
        did.  A fully dead chain raises :class:`QuorumError` (first failing
        partition wins deterministically) unless *degraded* is set, in
        which case its slot is ``(None, None)``.  With *tolerate_deadline*
        (the ``on_unavailable="partial"`` path) a partition whose read ran
        out of deadline budget is likewise returned as ``(None, None)`` —
        partial coverage instead of a failed query.
        """
        if partitions is None:
            partitions = self.partitions()

        def read_one(p: int) -> tuple:
            try:
                site, part = self._read_partition(
                    p, window, per_cell_reason, degraded, attr_ranges
                )
            except DeadlineExceededError:
                if not tolerate_deadline:
                    raise
                return None, None
            return site, part if part is None or local is None else local(part)

        return self.grid.scheduler.map(
            [(lambda p=p: read_one(p)) for p in partitions]
        )

    # -- reads -------------------------------------------------------------------

    def _gather(
        self,
        window: Optional[tuple[Coords, Coords]],
        partial: bool,
        attr_ranges: Optional[dict],
        name: str,
        tolerate_deadline: bool = False,
    ) -> tuple[SciArray, list[tuple[str, int]]]:
        """Read every logical partition (metered as ``"gather"``) and merge
        the partition arrays chunk by chunk, in partition order.

        Returns the merged array and the partitions that could not be
        served — always none unless *partial*, since a fully dead chain
        raises :class:`~repro.core.errors.QuorumError` otherwise.
        """
        out: Optional[SciArray] = None
        missing: list[tuple[str, int]] = []
        for p, (_site, part) in zip(
            self.partitions(),
            self._read_partitions(
                window, "gather", partial,
                tolerate_deadline=tolerate_deadline, attr_ranges=attr_ranges,
            ),
        ):
            if part is not None:
                # Into the partitions' own chunk grid (the read's choice).
                out = out or part.empty_like(name)
                _merge_into(out, part)
            elif partial:
                missing.append((self.name, p))
            else:
                # Defensive: _read_partition raises before returning None
                # on the strict path, but an error here must never be an
                # assert — `python -O` would turn a dead chain into
                # silent data loss.
                raise QuorumError(
                    f"partition {p} of {self.name!r}: no surviving replica"
                )
        return out or SciArray(self.schema, name=name), missing

    def scan(
        self,
        window: Optional[tuple[Coords, Coords]] = None,
        degraded: bool = False,
        attr_ranges: Optional[dict] = None,
    ) -> Iterator[tuple[Coords, Optional[Cell]]]:
        """Gather (windowed) cells at the coordinator, metering the gather.

        Reads each logical partition from its first surviving replica, so
        the scan survives up to ``replication - 1`` failures per chain.
        A partition with no surviving replica raises
        :class:`~repro.core.errors.QuorumError` — or, with
        ``degraded=True``, is silently skipped (partial answer).
        *attr_ranges* forwards the planner's value-pruning intervals to
        every node's storage manager (chunk skipping; pruned buckets'
        occupied cells come back NULL).
        """
        return self._gather(window, degraded, attr_ranges, self.name)[0].cells()

    def cell_count(self) -> int:
        """Total stored cells (replicas included) — the balance metric."""
        return sum(self.cells_per_node())

    def cells_per_node(self) -> list[int]:
        """Stored cells per node; dead nodes report 0 (unreachable)."""
        return [
            node.cell_count(self.name) if node.alive else 0
            for node in self.grid.nodes
        ]

    def imbalance(self) -> float:
        """max/mean stored cells per *alive* node; 1.0 is perfect balance.

        Dead nodes report 0 cells because they are unreachable, not
        because they are empty — including them in the mean would inflate
        the metric every time a node crashes, even when the survivors are
        perfectly balanced.
        """
        counts = [
            node.cell_count(self.name)
            for node in self.grid.nodes
            if node.alive
        ]
        if not counts:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    def subsample(
        self,
        window: tuple[Coords, Coords],
        degraded: bool = False,
        deadline: Optional[Deadline] = None,
        on_unavailable: str = "raise",
        attr_ranges: Optional[dict] = None,
    ) -> "SciArray | DegradedResult":
        """Window query executed with per-node bucket pruning.

        With ``degraded=True``, partitions that lost every replica are
        skipped and the partial answer comes back with a coverage report
        instead of a :class:`QuorumError`.  *deadline* bounds the query's
        wall time (installed as the ambient deadline for every partition
        task); *on_unavailable* decides what an unservable partition —
        dead chain or deadline-starved read — does: ``"raise"`` (default)
        propagates the error, ``"partial"`` marks the partition missing
        and returns a :class:`DegradedResult` within the budget.
        """
        partial = degraded or _wants_partial(on_unavailable)
        with deadline_scope(deadline):
            out, missing = self._gather(
                window, partial, attr_ranges, f"{self.name}_window",
                tolerate_deadline=_wants_partial(on_unavailable),
            )
        return _answer(out, partial, len(self.partitions()), missing)

    def materialize(self, attr_ranges: Optional[dict] = None) -> SciArray:
        return self._gather(None, False, attr_ranges, self.name)[0]

    # -- distributed operators ----------------------------------------------------

    def aggregate(
        self,
        group_dims: Sequence[str],
        agg: "str | UserAggregate",
        attr: Optional[str] = None,
        degraded: bool = False,
        deadline: Optional[Deadline] = None,
        on_unavailable: str = "raise",
    ) -> "SciArray | DegradedResult":
        """Grouped aggregation with local partials where algebraic.

        Each logical partition is aggregated exactly once, at the serving
        site of its replica chain — so the partials stay node-local even
        when the primary is dead, and replicas are never double-counted.
        *deadline* / *on_unavailable* behave as in :meth:`subsample`.
        """
        tolerate_deadline = _wants_partial(on_unavailable)
        partial_mode = degraded or tolerate_deadline
        plan = content._aggregate_plan(self, group_dims, agg, attr, None)
        with deadline_scope(deadline):
            missing = self._grouped(
                *plan, "aggregate", partial_mode, tolerate_deadline
            )
        return _answer(plan[0], partial_mode, len(self.partitions()), missing)

    def _grouped(
        self,
        out: SciArray,
        aggregate_fn: UserAggregate,
        attr: str,
        shape: tuple[int, ...],
        group_of: Callable[[Sequence[Any]], list],
        reason: str,
        degraded: bool = False,
        tolerate_deadline: bool = False,
    ) -> list[tuple[str, int]]:
        """Fold every partition into *out*, grouped as in
        :func:`repro.core.ops.content._grouped`; returns the partitions
        that could not be served.

        An algebraic aggregate folds each partition to partial states
        (count, sum, sum of squares, min/max) at its serving site in
        scheduler workers; the coordinator merges them in partition
        order, metering the partials as *reason*, so the result is the
        same bit for bit whatever the fan-out.  A holistic user aggregate
        ships the raw values instead and folds them per cell at the
        coordinator (its state is not mergeable).
        """
        kernel = content._kernel_aggregate(self, aggregate_fn, attr)
        missing: list[tuple[str, int]] = []
        shipped = SciArray(self.schema, name=self.name)
        partials = []
        for p, (site, got) in zip(
            self.partitions(),
            self._read_partitions(
                degraded=degraded, tolerate_deadline=tolerate_deadline,
                local=(lambda part: content._fold(
                    part, attr, aggregate_fn.name, shape, group_of
                )) if kernel else None,
            ),
        ):
            if site is None:
                missing.append((self.name, p))
                continue
            if not kernel:
                self.grid.meter(
                    site, COORDINATOR, got.count_present(),
                    self.cell_nbytes, reason,
                )
                _merge_into(shipped, got)
            elif got is not None:
                # 24 bytes: the wire estimate of one partial state.
                self.grid.meter(site, COORDINATOR, got[0].size, 24, reason)
                partials.append(got)
        if not kernel:
            content._grouped(shipped, out, aggregate_fn, attr, shape, group_of)
        elif partials:
            content._place(
                out, shape, aggregate_fn.name, content._merge_states(partials)
            )
        return missing

    def sjoin(
        self,
        other: "DistributedArray",
        on: Optional[Sequence[tuple[str, str]]] = None,
        degraded: bool = False,
    ) -> "SciArray | DegradedResult":
        """Structured join of two distributed arrays on all dimensions.

        Co-partitioned operands (equal partitioners — see
        :func:`repro.cluster.copartition.is_copartitioned`) join locally
        with **zero** shuffle; otherwise the right operand's cells are first
        repartitioned to the left's scheme (metered as ``"join_shuffle"``).
        Either side failing over to a replica keeps the join running; a
        partition with no surviving replica raises :class:`QuorumError`
        unless ``degraded=True``.
        """
        if on is None:
            on = list(zip(self.schema.dim_names, other.schema.dim_names))
        if len(on) != self.schema.ndim or len(on) != other.schema.ndim:
            raise SchemaError(
                "distributed sjoin joins all dimensions pairwise; use a "
                "local sjoin for partial-dimension joins"
            )

        missing: list[tuple[str, int]] = []
        copartitioned = self.partitioner == other.partitioner

        # Read every left partition in parallel (no per-cell metering: the
        # join runs at the serving site, which holds the cells locally).
        left_served: dict[int, tuple[int, SciArray]] = {}
        for p, (site, part) in zip(
            self.partitions(), self._read_partitions(degraded=degraded)
        ):
            if part is None:
                missing.append((self.name, p))
                continue
            left_served[p] = (site, part)

        # Assemble the right side per left partition.
        right_parts = {p: SciArray(other.schema) for p in left_served}
        total_partitions = len(self.partitions())
        if copartitioned:
            live = sorted(left_served)
            reads = zip(
                live, other._read_partitions(degraded=degraded, partitions=live)
            )
        else:
            # Shuffle right cells to the site joining the matching left cell.
            total_partitions += len(other.partitions())
            reads = zip(
                other.partitions(), other._read_partitions(degraded=degraded)
            )
        for q, (r_site, r_part) in reads:
            if r_part is None:
                missing.append((other.name, q))
                continue
            pieces = (
                {q: r_part} if copartitioned
                else self.partitioner.split(r_part)
            )
            for target, piece in pieces.items():
                if target not in left_served:
                    continue  # left side lost: nothing to join against
                # Replica chains diverge (different k/placement) or the
                # schemes differ: the right cells travel to the join site.
                left_site = left_served[target][0]
                if r_site != left_site:
                    self.grid.meter(
                        r_site, left_site, piece.count_occupied(),
                        other.cell_nbytes, "join_shuffle",
                    )
                _merge_into(right_parts[target], piece)

        # Local joins are pure per partition: fan them out, merge the
        # results (and meter the gathers) serially in partition order.
        def local_join(p: int) -> Optional[SciArray]:
            left, right = left_served[p][1], right_parts[p]
            if left.count_occupied() == 0 or right.count_occupied() == 0:
                return None
            return structural_ops.sjoin(left, right, on=on)

        ordered = sorted(left_served)
        locals_ = self.grid.scheduler.map(
            [(lambda p=p: local_join(p)) for p in ordered]
        )
        # An empty join of empty operands gives the joined schema.
        out = structural_ops.sjoin(
            SciArray(self.schema, name=self.name),
            SciArray(other.schema, name=other.name), on=on,
        )
        for p, local in zip(ordered, locals_):
            if local is None:
                continue
            self.grid.ledger.record(
                left_served[p][0],
                COORDINATOR,
                local.count_occupied() * (self.cell_nbytes + other.cell_nbytes),
                "gather",
            )
            _merge_into(out, local)
        return _answer(out, degraded, total_partitions, missing)

    def filter(
        self,
        predicate,
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Filter: runs node-local with **zero** movement."""
        return self._node_local(
            output_name or f"{self.name}_filtered", self.schema,
            lambda part: content.filter(part, predicate=predicate),
        )

    def apply(
        self,
        fn,
        output: Sequence[tuple[str, str]],
        output_name: Optional[str] = None,
    ) -> "DistributedArray":
        """Distributed Apply: node-local per-cell computation, no movement."""
        from ..core.schema import define_array

        out_schema = define_array(
            f"{self.schema.name}_applied",
            values=list(output),
            dims=[(d.name, d.size) for d in self.schema.dimensions],
        )
        return self._node_local(
            output_name or f"{self.name}_applied", out_schema,
            lambda part: content.apply(part, fn=fn, output=output),
        )

    def _node_local(
        self, name: str, schema: ArraySchema,
        op: Callable[[SciArray], SciArray],
    ) -> "DistributedArray":
        """A new array *name* of *schema*, placed like this one, whose
        partition on each alive node is *op* (address-preserving) of this
        array's whole partition there, replica copies included: zero
        movement, and the output is replicated exactly like the input.
        Nodes that die meanwhile are skipped: their partitions' surviving
        replicas still produce complete output copies.
        """
        self._check_coverage()
        out = self.grid.create_array(
            name, schema, self.partitioner, replication=self.replication,
            placement=self.placement,
        )
        # Addresses are preserved, so the extent high-water carries over.
        out._dim_highwater = list(self._dim_highwater)

        def run(node: Node) -> None:
            try:
                node.partition(name).write(op(node.scan_partition(self.name)))
            except NodeFailedError:
                pass

        self.grid.scheduler.map(
            [(lambda node=node: run(node)) for node in self.grid.alive_nodes()]
        )
        return out

    def _check_coverage(self) -> None:
        """Raise QuorumError if any partition has lost every replica."""
        for p in self.partitions():
            chain = self.partition_chain(p)
            if not any(self.grid.nodes[s].alive for s in chain):
                raise QuorumError(
                    f"partition {p} of {self.name!r}: every replica site "
                    f"of {chain} is dead"
                )

    def regrid(
        self,
        factors: Sequence[int],
        agg: "str | UserAggregate" = "avg",
        attr: Optional[str] = None,
    ) -> SciArray:
        """Distributed Regrid: local partial aggregation per output block,
        merged at the coordinator (algebraic aggregates only).

        Output blocks can straddle partition boundaries, so unlike
        :meth:`filter`/:meth:`apply` this moves partial states — metered as
        ``"regrid"``.
        """
        plan = content._regrid_plan(self, factors, agg, attr, None)
        out, aggregate_fn, attr_name = plan[:3]
        if not content._kernel_aggregate(self, aggregate_fn, attr_name):
            raise SchemaError(
                f"distributed regrid needs an algebraic aggregate, "
                f"not {aggregate_fn.name!r}"
            )
        self._grouped(*plan, "regrid")
        return out

    def _extent(self, dim_index: int) -> int:
        declared = self.schema.dimensions[dim_index].size
        if declared is not None:
            return declared
        # Unbounded: the per-dimension high-water mark maintained on every
        # write/ingest (see _note_coords) — O(1), no storage rescans.
        return self._dim_highwater[dim_index]

    high_water = _extent  # the SciArray name content's operator plans use

    # -- repartitioning --------------------------------------------------------------

    def repartition(self, new_partitioner: Partitioner) -> int:
        """Migrate to *new_partitioner*; returns cells whose primary moved.

        Movement is metered as ``"repartition"``; replica copies already
        resident on their (new) target node do not move (and cost
        nothing).  Reads fail over to surviving replicas, so a
        repartition can run through a node failure.
        """
        if new_partitioner.n_sites != len(self.grid.nodes):
            raise PartitioningError("new partitioner targets a different grid size")
        # Gather every logical cell once (in parallel), remembering who
        # served it; redistribution below stays serial so the delivery —
        # and with it fault ordering — is deterministic.
        collected: list[tuple[int, Coords, Optional[tuple]]] = []
        for p, (site, part) in zip(self.partitions(), self._read_partitions()):
            if site is None or part is None:  # pragma: no cover - defensive
                raise QuorumError(
                    f"partition {p} of {self.name!r}: no surviving replica"
                )
            for coords, cell in part.cells():
                collected.append(
                    (site, coords, None if cell is None else cell.values)
                )
        # Snapshot current physical placement: copies already on their new
        # home are free.
        prior: dict[int, frozenset[Coords]] = {}
        for node in self.grid.alive_nodes():
            prior[node.node_id] = node.partition(self.name).live_coords()
        # Rebuild partitions on every live node, then replay.
        for node in self.grid.alive_nodes():
            node.storage.drop_array(self.name)
            node.create_partition(self.name, self.schema)
        moved = 0
        for src_site, coords, values in collected:
            new_primary = new_partitioner.site_of(coords)
            if new_primary != self.partitioner.site_of(coords):
                moved += 1
            chain = self.chain_under(new_partitioner, new_primary)
            for dst in chain:
                if coords in prior.get(dst, ()):
                    # Already resident before the migration: free.
                    node = self.grid.nodes[dst]
                    if node.alive:
                        node.store(self.name, coords, values)
                    continue
                self.grid.deliver(
                    src_site, dst, self.cell_nbytes, "repartition",
                    self.name, coords, values,
                )
        self.flush()
        self.partitioner = new_partitioner
        return moved


class _PartitionLoadSink:
    """One logical partition's substream target for the checkpointed loader.

    The :class:`~repro.storage.loader.BulkLoader` sees the same sink
    surface a :class:`~repro.storage.manager.PersistentArray` offers
    (``schema``/``append``/``flush``/``load_cursor``/``commit_load_batch``)
    but every append routes through the grid's failover write and every
    checkpoint commits on each surviving site of the partition's replica
    chain — so the checkpoint survives exactly the failures the data does.
    """

    def __init__(self, array: DistributedArray, partition: int) -> None:
        self.array = array
        self.partition = partition
        self.schema = array.schema
        self._serving: Optional[int] = None

    def _alive_chain(self) -> list["Node"]:
        grid = self.array.grid
        return [
            grid.nodes[s]
            for s in self.array.partition_chain(self.partition)
            if grid.nodes[s].alive
        ]

    def append(self, coords: Coords, values: Optional[tuple]) -> None:
        serving, failed_over = self.array.write_failover(coords, values)
        if failed_over and serving != self._serving:
            # One failover event per serving-site transition, not per cell.
            primary = self.array.partition_chain(self.partition)[0]
            self.array.grid._log_failover(
                self.array.name, self.partition, primary, attempt=1
            )
        self._serving = serving

    def flush(self) -> None:
        for node in self._alive_chain():
            node.partition(self.array.name).flush()

    def _cursor_key(self, epoch: "int | str") -> str:
        # Replica chains overlap (chained declustering guarantees it), so
        # one node's partition store backs several logical partitions.
        # Scoping the cursor key by partition keeps one substream's
        # commits from making a sibling substream skip its own batches.
        return f"{epoch}/p{self.partition}"

    def load_cursor(self, epoch: "int | str" = 0) -> int:
        """Furthest batch any surviving replica committed for *this*
        partition's substream.

        ``max`` is sound because commits happen only after the batch's
        cells were delivered to the whole chain: a replica whose cursor
        lags still holds (or can WAL-replay) every cell of the batch.
        """
        key = self._cursor_key(epoch)
        cursors = [
            node.partition(self.array.name).load_cursor(key)
            for node in self._alive_chain()
        ]
        return max(cursors, default=-1)

    def commit_load_batch(self, epoch: "int | str", seq: int) -> None:
        nodes = self._alive_chain()
        if not nodes:
            raise QuorumError(
                f"commit of load batch {seq} for partition "
                f"{self.partition} of {self.array.name!r}: chain is dead"
            )
        key = self._cursor_key(epoch)
        for node in nodes:
            node.commit_load_batch(self.array.name, key, seq)


class Grid:
    """A simulated shared-nothing cluster rooted at one directory."""

    def __init__(
        self,
        n_nodes: int,
        directory: "str | Path",
        memory_budget: int = 1 << 20,
        fault_injector: Optional[FaultInjector] = None,
        default_replication: int = 1,
        max_read_retries: int = 2,
        backoff_base_ms: float = 1.0,
        backoff_max_ms: float = 64.0,
        parallelism: Optional[int] = None,
        chunk_cache_bytes: int = 8 << 20,
        fetch_latency_ms: float = 0.0,
        resilience: Optional[ResiliencePolicy] = None,
        hedge_delay_ms: Optional[float] = None,
    ) -> None:
        if n_nodes < 1:
            raise PartitioningError("a grid needs at least one node")
        directory = Path(directory)
        # Remembered for elastic growth: add_node() provisions new
        # workers with the same storage knobs as the founding members.
        self.directory = directory
        self.memory_budget = memory_budget
        self.chunk_cache_bytes = chunk_cache_bytes
        self.nodes = [
            Node(
                i,
                directory / f"node_{i:03d}",
                memory_budget=memory_budget,
                chunk_cache_bytes=chunk_cache_bytes,
            )
            for i in range(n_nodes)
        ]
        self.ledger = DataMovementLedger()
        self.default_replication = default_replication
        # The resilience bundle: an explicit policy wins; otherwise one is
        # assembled from the legacy knobs (max_read_retries, backoff_*),
        # seeded from the fault injector so jitter is drill-reproducible.
        if resilience is None:
            resilience = ResiliencePolicy(
                retry=RetryPolicy(
                    max_attempts=max_read_retries,
                    backoff_base_ms=backoff_base_ms,
                    backoff_max_ms=backoff_max_ms,
                    seed=fault_injector.seed if fault_injector is not None
                    else 0,
                ),
                hedge=HedgePolicy(delay_ms=hedge_delay_ms),
            )
        elif hedge_delay_ms is not None:
            resilience = ResiliencePolicy(
                retry=resilience.retry,
                breaker=resilience.breaker,
                hedge=HedgePolicy(delay_ms=hedge_delay_ms),
            )
        self.resilience = resilience
        self.max_read_retries = resilience.retry.max_attempts
        self.backoff_base_ms = resilience.retry.backoff_base_ms
        self.backoff_max_ms = resilience.retry.backoff_max_ms
        self.breakers = [
            CircuitBreaker(f"node_{i}", resilience.breaker)
            for i in range(n_nodes)
        ]
        self._resilience_lock = threading.Lock()
        self.resilience_counters: dict[str, int] = {
            "hedges": 0,
            "hedge_wins": 0,
            "breaker_skips": 0,
            "deadline_misses": 0,
            "dual_reads": 0,
        }
        self.failover_log: list[FailoverEvent] = []
        #: simulated latency charged by slow-site faults (the grid never sleeps)
        self.store_latency_ms = 0.0
        #: modeled per-partition-fetch RPC latency, realised as a *real*
        #: sleep inside each partition read.  Unlike ``store_latency_ms``
        #: (pure accounting), this knob makes wall-clock behave like a
        #: networked grid so intra-query fan-out can be measured
        #: honestly — fetches overlap under the scheduler even when the
        #: decode work itself cannot.  Off (0.0) by default; benchmarks
        #: opt in explicitly.
        self.fetch_latency_ms = float(fetch_latency_ms)
        self.faults: Optional[FaultInjector] = None
        if fault_injector is not None:
            fault_injector.attach(self)
        # Intra-query fan-out.  Fault drills run at full parallelism too:
        # the injector is thread-safe and its randomness is keyed (not a
        # shared stream), so a drill is reproducible from (workload, seed)
        # even when scheduler workers race — the old force-serial special
        # case for fault-injected grids is gone.
        if parallelism is None:
            parallelism = default_parallelism(n_nodes)
        self.parallelism = parallelism
        self.scheduler = PartitionScheduler(parallelism)
        # Writes and failover logging are cross-node critical sections.
        self._deliver_lock = threading.RLock()
        self._failover_lock = threading.Lock()
        self._arrays: dict[str, DistributedArray] = {}
        # Elastic-operations bookkeeping: in-flight migrations, finished
        # migration reports, and node rebuild reports — all surfaced in
        # metrics_snapshot() / explain.
        self.active_rebalancers: list[Rebalancer] = []
        self.rebalance_log: list[RebalanceReport] = []
        self.rebuilds: list[RebuildReport] = []

    # -- liveness --------------------------------------------------------------------

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes if node.alive]

    def members(self) -> tuple[int, ...]:
        """Node ids currently part of the grid.  Retired slots are
        excluded but never renumbered — a node id is forever."""
        return tuple(n.node_id for n in self.nodes if not n.retired)

    # -- elastic membership ----------------------------------------------------------

    def _ring_target(
        self, arr: "DistributedArray", members: tuple[int, ...]
    ) -> Partitioner:
        """The partitioner *arr* should migrate to for *members*.

        Ring-partitioned arrays keep their ring with the membership
        delta applied — that is what bounds movement at ~1/(N+1) per
        added/removed member.  Any other scheme converts to a consistent
        hash ring, a one-time full reshuffle that buys every later
        membership change the cheap path.
        """
        from .partitioning import ConsistentHashPartitioner

        if len(members) < arr.replication:
            raise PartitioningError(
                f"array {arr.name!r} needs {arr.replication} members for "
                f"its replica chains; membership would be {members}"
            )
        current = arr.partitioner
        if isinstance(current, ConsistentHashPartitioner):
            out = current
            for m in sorted(set(members) - set(current.members)):
                out = out.with_member(m)
            for m in sorted(set(current.members) - set(members)):
                out = out.without_member(m)
            return out
        return ConsistentHashPartitioner(len(self.nodes), members=members)

    def add_node(
        self,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> tuple[int, list[RebalanceReport]]:
        """Grow the grid by one worker, online.

        Provisions the node with the grid's storage knobs, then migrates
        every array to a ring including the new member — throttled
        background copies (metered ``"rebalance"``) interleaved with
        serving traffic, moving only ~1/(N+1) of each array's cells.
        Returns the new node id and one report per migrated array.
        """
        nid = len(self.nodes)
        node = Node(
            nid,
            self.directory / f"node_{nid:03d}",
            memory_budget=self.memory_budget,
            chunk_cache_bytes=self.chunk_cache_bytes,
        )
        self.nodes.append(node)
        self.breakers.append(
            CircuitBreaker(f"node_{nid}", self.resilience.breaker)
        )
        for name in self.names():
            node.create_partition(name, self._arrays[name].schema)
        _flight_emit("node_add", node=nid, members=len(self.nodes))
        members = self.members()
        reports: list[RebalanceReport] = []
        for name in self.names():
            arr = self._arrays[name]
            reports.append(
                self.rebalance(
                    name, self._ring_target(arr, members),
                    max_transfer_cells_per_tick=max_transfer_cells_per_tick,
                    interleave=interleave,
                )
            )
        return nid, reports

    def drain_node(
        self,
        node_id: int,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> list[RebalanceReport]:
        """Move every chunk off *node_id*, online.

        The node stays up as an empty standby (it serves old-chain reads
        until each array's cutover) — :meth:`remove_node` retires it for
        good.  Each array migrates to its ring minus the drained member;
        with replication, sources come from surviving chain copies, so a
        drain can even evacuate a dead node's logical data.
        """
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is retired")
        members = tuple(m for m in self.members() if m != node_id)
        if not members:
            raise GridError("cannot drain the grid's last member")
        _flight_emit("node_drain", node=node_id, remaining=len(members))
        reports: list[RebalanceReport] = []
        for name in self.names():
            arr = self._arrays[name]
            target = self._ring_target(arr, members)
            if target.descriptor() == arr.partitioner.descriptor():
                continue  # already places nothing on node_id
            reports.append(
                self.rebalance(
                    name, target,
                    max_transfer_cells_per_tick=max_transfer_cells_per_tick,
                    interleave=interleave,
                )
            )
        return reports

    def remove_node(
        self,
        node_id: int,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
    ) -> list[RebalanceReport]:
        """Drain *node_id*, then retire it (``alive=False``,
        ``retired=True``).  If any drain migration aborts the node is
        left in place, still serving — removal is all-or-nothing."""
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is already retired")
        reports = self.drain_node(
            node_id,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
            interleave=interleave,
        )
        failed = [r.array for r in reports if r.aborted]
        if failed:
            raise GridError(
                f"drain of node {node_id} aborted for {failed}; "
                f"node not removed"
            )
        node.retired = True
        node.alive = False
        _flight_emit("node_remove", node=node_id)
        return reports

    # -- online rebalancing ----------------------------------------------------------

    def start_rebalance(
        self,
        array_name: str,
        new_partitioner: Partitioner,
        max_transfer_cells_per_tick: int = 64,
    ) -> Rebalancer:
        """Plan a throttled migration and attach it to the array
        (dual-homed writes, dual-resolve read fallback) without running
        it — chaos drills drive ``tick()``/``finalize()`` themselves so
        kills and scans can land between any two ticks."""
        arr = self.get_array(array_name)
        rb = Rebalancer(
            self, arr, new_partitioner,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
        )
        rb.plan()
        self.active_rebalancers.append(rb)
        return rb

    def rebalance(
        self,
        array_name: str,
        new_partitioner: Partitioner,
        max_transfer_cells_per_tick: int = 64,
        interleave: Optional[Callable[[], None]] = None,
        max_ticks: Optional[int] = None,
    ) -> RebalanceReport:
        """Migrate one array to *new_partitioner* as a throttled
        background task; *interleave* — the serving traffic the
        migration must not starve — runs between ticks."""
        rb = self.start_rebalance(
            array_name, new_partitioner,
            max_transfer_cells_per_tick=max_transfer_cells_per_tick,
        )
        return rb.run(interleave=interleave, max_ticks=max_ticks)

    def _rebalance_done(
        self, rebalancer: Rebalancer, report: RebalanceReport
    ) -> None:
        if rebalancer in self.active_rebalancers:
            self.active_rebalancers.remove(rebalancer)
        self.rebalance_log.append(report)

    def rebalance_snapshot(self) -> dict[str, Any]:
        """Progress of in-flight migrations plus finished-run totals."""
        return {
            "active": [rb.progress() for rb in self.active_rebalancers],
            "completed": [asdict(r) for r in self.rebalance_log],
            "cells_moved": sum(r.cells_moved for r in self.rebalance_log),
            "copies_delivered": sum(
                r.copies_delivered for r in self.rebalance_log
            ),
            "throttle_hits": sum(
                r.throttle_hits for r in self.rebalance_log
            ) + sum(rb.throttle_hits for rb in self.active_rebalancers),
            "aborted": sum(1 for r in self.rebalance_log if r.aborted),
        }

    # -- observability ---------------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """One unified, JSON-able view of the grid's accounting: the
        movement ledger, per-node work counters and storage stats, the
        failover log, and simulated store latency."""
        return {
            "parallelism": self.parallelism,
            "ledger": {
                "total_bytes": self.ledger.total_bytes(),
                "by_reason": self.ledger.by_reason(),
                "transfers": len(self.ledger.transfers),
                "dropped_bytes": self.ledger.dropped_bytes(),
                "dropped": len(self.ledger.dropped),
            },
            "nodes": [
                {
                    "node_id": node.node_id,
                    "alive": node.alive,
                    "retired": node.retired,
                    **node.counters.snapshot(),
                    "storage": node.storage.total_stats(),
                    "chunk_cache": (
                        node.storage.chunk_cache.stats()
                        if node.storage.chunk_cache is not None
                        else None
                    ),
                }
                for node in self.nodes
            ],
            "failovers": len(self.failover_log),
            "store_latency_ms": self.store_latency_ms,
            "fetch_latency_ms": self.fetch_latency_ms,
            "resilience": self.resilience_snapshot(),
            "rebalance": self.rebalance_snapshot(),
            "rebuilds": [asdict(r) for r in self.rebuilds],
            "arrays": sorted(self._arrays),
        }

    def resilience_snapshot(self) -> dict[str, Any]:
        """Retry/breaker/hedge accounting for reconciliation: policy
        parameters, the grid-wide counters, and per-node breaker states
        (with their full transition counts)."""
        with self._resilience_lock:
            counters = dict(self.resilience_counters)
        return {
            "policy": self.resilience.describe(),
            "failovers": len(self.failover_log),
            **counters,
            "breaker_transitions": sum(
                len(b.transitions) for b in self.breakers
            ),
            "breakers": [b.snapshot() for b in self.breakers],
        }

    def _count_resilience(self, name: str, n: int = 1) -> None:
        with self._resilience_lock:
            self.resilience_counters[name] = (
                self.resilience_counters.get(name, 0) + n
            )
        if name == "deadline_misses":
            _flight_emit("deadline_miss", count=n)

    def _log_failover(self, array: str, partition: int, site: int,
                      attempt: int) -> None:
        backoff_ms = self.resilience.retry.backoff_ms(
            attempt, key=(array, partition)
        )
        with self._failover_lock:
            self.failover_log.append(
                FailoverEvent(array, partition, site, attempt, backoff_ms)
            )
        self.nodes[site].counters.add("read_retries")
        tracing.add_current("failovers", 1)

    def meter(
        self, src: int, dst: int, cells: int, nbytes: int, reason: str
    ) -> None:
        """Record *cells* transfers of *nbytes* each: one per cell when a
        fault injector watches the transfer clock (so a scheduled fault can
        land between cells), else one bulk transfer of the same bytes."""
        if self.faults is None:
            if cells:
                self.ledger.record(src, dst, cells * nbytes, reason)
            return
        for _ in range(cells):
            self.ledger.record(src, dst, nbytes, reason)

    # -- the delivery fabric -----------------------------------------------------------

    def deliver(
        self,
        src: int,
        dst: int,
        nbytes: int,
        reason: str,
        array_name: str,
        coords: Coords,
        values: Optional[tuple],
    ) -> bool:
        """Send one cell to a node, through the fault injector.

        Returns True when the cell was stored.  Deliveries to a dead node
        — or eaten by an injected drop — are recorded in the ledger's
        ``dropped`` list instead of the transfer log.  Metering happens
        *before* the store, so a scheduled kill firing on this transfer
        loses the cell, exactly like a real crash between receive and ack.
        """
        # One delivery at a time grid-wide: the injector's RNG draw, the
        # liveness check, the metered record (which may fire a kill) and
        # the store must stay one atomic sequence even when scheduler
        # workers (parallel repartition/rebuild) deliver concurrently.
        with self._deliver_lock:
            node = self.nodes[dst]
            if not node.alive:
                self.ledger.record_dropped(src, dst, nbytes, reason)
                return False
            if self.faults is not None:
                verdict, values = self.faults.intercept(
                    src, dst, nbytes, reason, values
                )
                if verdict == "drop":
                    self.ledger.record_dropped(src, dst, nbytes, reason)
                    return False
                # Transient I/O fault at the receiving disk: the bytes moved
                # but nothing was stored.  Recorded as dropped, then raised
                # for the loader's bounded-retry policy to absorb.
                try:
                    self.store_latency_ms += self.faults.intercept_store(dst)
                except TransientIOError:
                    self.ledger.record_dropped(src, dst, nbytes, reason)
                    raise
            self.ledger.record(src, dst, nbytes, reason)  # may fire a kill
            if not node.alive:
                return False
            node.counters.add("bytes_received", nbytes)
            if 0 <= src < len(self.nodes):
                self.nodes[src].counters.add("bytes_sent", nbytes)
            node.store(array_name, coords, values)
            arr = self._arrays.get(array_name)
            if arr is not None:
                arr._note_coords(coords)
            return True

    # -- catalog ------------------------------------------------------------------------

    def create_array(
        self,
        name: str,
        schema: ArraySchema,
        partitioner: Partitioner,
        stride: Optional[Sequence[int]] = None,
        replication: Optional[int] = None,
        placement: Optional[ReplicaPlacement] = None,
    ) -> DistributedArray:
        if name in self._arrays:
            raise PartitioningError(f"distributed array {name!r} already exists")
        for node in self.alive_nodes():
            node.create_partition(name, schema, stride=stride)
        arr = DistributedArray(
            self, name, schema, partitioner,
            replication=replication if replication is not None
            else self.default_replication,
            placement=placement,
        )
        self._arrays[name] = arr
        return arr

    def get_array(self, name: str) -> DistributedArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise PartitioningError(f"no distributed array named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._arrays)

    # -- node rebuild -------------------------------------------------------------------

    def rebuild_node(self, node_id: int) -> RebuildReport:
        """Bring a crashed node back: WAL replay plus replica copy-back.

        The node restarts with empty storage (a crash loses all in-memory
        state; only the per-node write-ahead log survives on disk).  The
        rebuild then (1) re-creates every registered partition, (2)
        replays the WAL — a torn tail legally ends the replay early — and
        (3) copies every cell the node should hold but doesn't (WAL gaps,
        writes that happened while it was down) from the first surviving
        replica in each affected chain, metered as ``"rebuild"``.
        """
        node = self.nodes[node_id]
        if node.retired:
            raise GridError(f"node {node_id} is retired; nothing to rebuild")
        node.restart()
        try:
            for name, arr in self._arrays.items():
                node.create_partition(name, arr.schema)
            from_wal = node.replay_wal(set(self._arrays))
        except StorageError:
            # A damaged WAL aborts the rebuild; the node must not come
            # back up half-empty pretending to be healthy.
            node.fail()
            raise
        before = self.ledger.total_bytes("rebuild")

        def copy_partition(name: str, arr: DistributedArray, p: int,
                           have: frozenset[Coords]) -> int:
            """Copy partition *p*'s missing cells from a surviving replica.

            `have` is a task-local snapshot: the coords each task copies
            belong to its own partition only, so partition tasks never
            race on the same cell address.
            """
            chain = arr.partition_chain(p)
            local_have = set(have)
            copied = 0
            sources = [
                s for s in chain
                if s != node_id and self.nodes[s].alive
            ]
            for source in sources:
                try:
                    part = arr.partitioner.split(
                        self.nodes[source].scan_partition(name)
                    ).get(p, SciArray(arr.schema))
                    for coords, cell in part.cells():
                        self.nodes[source].check_alive()
                        if coords in local_have:
                            continue
                        values = None if cell is None else cell.values
                        if self.deliver(
                            source, node_id, arr.cell_nbytes, "rebuild",
                            name, coords, values,
                        ):
                            local_have.add(coords)
                            copied += 1
                    break  # one surviving source suffices
                except NodeFailedError:
                    continue  # source died mid-copy: try the next one
            return copied

        tasks = []
        for name, arr in self._arrays.items():
            have = frozenset(node.partition(name).live_coords())
            for p in arr.partitions():
                if node_id not in arr.partition_chain(p):
                    continue
                tasks.append(
                    lambda name=name, arr=arr, p=p, have=have:
                        copy_partition(name, arr, p, have)
                )
        from_replicas = sum(self.scheduler.map(tasks))
        for name in self._arrays:
            node.partition(name).flush()
        # A rebuilt node is healthy by construction: close its breaker so
        # queries stop detouring past it for a stale cooldown.
        self.breakers[node_id].record_success()
        report = RebuildReport(
            node_id=node_id,
            cells_from_wal=from_wal,
            cells_from_replicas=from_replicas,
            bytes_moved=self.ledger.total_bytes("rebuild") - before,
            load_cursors_restored=node.load_cursors_restored,
        )
        self.rebuilds.append(report)
        _flight_emit(
            "node_rebuild",
            node=node_id,
            cells_from_wal=from_wal,
            cells_from_replicas=from_replicas,
            bytes_moved=report.bytes_moved,
        )
        return report
