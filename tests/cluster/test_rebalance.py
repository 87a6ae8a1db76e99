"""Online elastic rebalancing: add/drain/remove nodes under live traffic.

The ROADMAP item 4 acceptance bar: ``add_node`` on an N-node grid moves
at most ``1.5/(N+1)`` of stored cells (metered ``"rebalance"``), queries
keep answering correctly throughout a seeded membership-churn drill
(add + drain + kill during scans, ten seeds, zero wrong answers), and a
node death mid-migration aborts or completes deterministically.
"""

import random

import pytest

from repro import define_array
from repro.cluster.resilience import Deadline, deadline_scope
from repro.core.errors import (
    DeadlineExceededError,
    GridError,
    PartitioningError,
    QuorumError,
)
from repro.cluster import (
    BreakerConfig,
    ConsistentHashPartitioner,
    FaultInjector,
    Grid,
    HashPartitioner,
    RebalanceAdvisor,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.storage.loader import LoadRecord

N_NODES = 6
K = 2
PARALLELISM = 4
WINDOW = ((20, 20), (80, 80))
CHURN_SEEDS = list(range(10))


def schema():
    return define_array("sky", {"flux": "float"}, ["x", "y"]).bind([100, 100])


def ring(n_sites, members=None, **kw):
    return ConsistentHashPartitioner(
        n_sites, members=members if members is not None else range(n_sites),
        **kw,
    )


def populate(arr, n, seed=0):
    """Load *n* distinct random cells; returns the truth dict."""
    rng = random.Random(seed)
    truth = {}
    while len(truth) < n:
        truth[(rng.randint(1, 100), rng.randint(1, 100))] = float(len(truth))
    arr.load(LoadRecord(c, (v,)) for c, v in truth.items())
    return truth


def assert_exact(arr, truth, window=None):
    """Full-scan equivalence and exactly-once service."""
    got = [(c, cell.flux) for c, cell in arr.scan(window)]
    coords = [c for c, _ in got]
    assert len(coords) == len(set(coords)), "a replica was served twice"
    expected = truth if window is None else {
        c: v for c, v in truth.items()
        if all(l <= x <= h for x, l, h in zip(c, *window))
    }
    assert dict(got) == pytest.approx(expected)


def make_grid(tmp_path, sub, n_nodes=N_NODES, seed=0, **kw):
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, seed=seed),
        breaker=BreakerConfig(failure_threshold=2, cooldown=3),
    )
    kw.setdefault("parallelism", PARALLELISM)
    return Grid(n_nodes, tmp_path / sub, resilience=policy, **kw)


class TestMovementBound:
    """add_node moves <= 1.5/(N+1) of stored cells, metered "rebalance"."""

    @pytest.mark.parametrize("seed", range(10))
    def test_add_node_moves_bounded_fraction(self, tmp_path, seed):
        n = 5
        grid = make_grid(tmp_path, f"b{seed}", n_nodes=n)
        arr = grid.create_array("sky", schema(), ring(n), replication=K)
        truth = populate(arr, 300, seed=seed)
        stored = arr.cell_count()  # replicas included
        before = grid.ledger.total_bytes("rebalance")

        nid, reports = grid.add_node(max_transfer_cells_per_tick=10**9)

        assert nid == n
        (report,) = reports
        assert not report.aborted
        moved_bytes = grid.ledger.total_bytes("rebalance") - before
        assert moved_bytes == report.copies_delivered * arr.cell_nbytes
        assert report.moved_fraction(stored) <= 1.5 / (n + 1), (
            f"seed {seed}: moved {report.moved_fraction(stored):.3f} "
            f"of stored cells, bound {1.5 / (n + 1):.3f}"
        )
        # The new node actually took on load, and answers stayed exact.
        assert grid.nodes[nid].cell_count("sky") > 0
        assert_exact(arr, truth)

    def test_dual_write_copies_metered_separately(self, tmp_path):
        """Migration-window writes meter as "rebalance_dual", keeping the
        acceptance-bound "rebalance" meter clean of ingest traffic."""
        grid = make_grid(tmp_path, "dw", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), ring(4, members=(0, 1, 2)), replication=K
        )
        truth = populate(arr, 60)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=8,
        )
        rb.tick()
        rng = random.Random(99)
        fresh = {}
        while len(fresh) < 20:
            c = (rng.randint(1, 100), rng.randint(1, 100))
            if c in truth:
                continue
            fresh[c] = 500.0 + len(fresh)
            arr.write(c, (fresh[c],))
        truth.update(fresh)
        report = rb.run(interleave=lambda: assert_exact(arr, truth))
        assert not report.aborted
        assert report.dual_writes >= len(fresh)
        assert grid.ledger.total_bytes("rebalance") == (
            report.copies_delivered * arr.cell_nbytes
        )
        assert_exact(arr, truth)


class TestElasticMembership:
    def test_add_node_provisions_and_serves(self, tmp_path):
        grid = make_grid(tmp_path, "add")
        arr = grid.create_array("sky", schema(), ring(N_NODES), replication=K)
        truth = populate(arr, 150)
        nid, _ = grid.add_node(max_transfer_cells_per_tick=32)
        assert grid.members() == tuple(range(N_NODES + 1))
        assert nid in arr.partitioner.members
        assert_exact(arr, truth)
        assert_exact(arr, truth, WINDOW)
        # New arrays land on the grown grid too.
        other = grid.create_array(
            "sky2", schema(), ring(N_NODES + 1), replication=K
        )
        truth2 = populate(other, 40, seed=7)
        assert_exact(other, truth2)

    def test_drain_node_empties_it_online(self, tmp_path):
        grid = make_grid(tmp_path, "drain")
        arr = grid.create_array("sky", schema(), ring(N_NODES), replication=K)
        truth = populate(arr, 150)
        reports = grid.drain_node(
            0, max_transfer_cells_per_tick=16,
            interleave=lambda: assert_exact(arr, truth, WINDOW),
        )
        assert all(not r.aborted for r in reports)
        assert grid.nodes[0].cell_count("sky") == 0
        assert 0 not in arr.partitioner.members
        # Drained but not retired: still a member of the machine room.
        assert grid.nodes[0].alive and not grid.nodes[0].retired
        assert 0 in grid.members()
        assert_exact(arr, truth)

    def test_remove_node_retires_for_good(self, tmp_path):
        grid = make_grid(tmp_path, "rm")
        arr = grid.create_array("sky", schema(), ring(N_NODES), replication=K)
        truth = populate(arr, 150)
        grid.remove_node(3, max_transfer_cells_per_tick=32)
        node = grid.nodes[3]
        assert node.retired and not node.alive
        assert grid.members() == (0, 1, 2, 4, 5)
        assert_exact(arr, truth)
        # Retired slots reject rebuilds, repeat removal and draining.
        with pytest.raises(GridError):
            grid.rebuild_node(3)
        with pytest.raises(GridError):
            grid.remove_node(3)
        with pytest.raises(GridError):
            grid.drain_node(3)
        # Node ids are never renumbered: a later grow reuses the next id.
        nid, _ = grid.add_node(max_transfer_cells_per_tick=10**9)
        assert nid == N_NODES
        assert grid.members() == (0, 1, 2, 4, 5, 6)
        assert_exact(arr, truth)

    def test_remove_below_replication_refused(self, tmp_path):
        grid = make_grid(tmp_path, "floor", n_nodes=2)
        grid.create_array("sky", schema(), ring(2), replication=2)
        with pytest.raises(PartitioningError):
            grid.remove_node(1)

    def test_non_ring_array_converts_on_add(self, tmp_path):
        """A hash-partitioned array converts to a ring the first time
        membership changes (one full reshuffle, cheap ever after)."""
        grid = make_grid(tmp_path, "conv", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), HashPartitioner(4), replication=K
        )
        truth = populate(arr, 100)
        grid.add_node(max_transfer_cells_per_tick=64)
        assert isinstance(arr.partitioner, ConsistentHashPartitioner)
        assert arr.partitioner.members == (0, 1, 2, 3, 4)
        assert_exact(arr, truth)


class TestThrottle:
    def test_tick_budget_and_throttle_hits(self, tmp_path):
        grid = make_grid(tmp_path, "thr", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), ring(4, members=(0, 1, 2)), replication=K
        )
        truth = populate(arr, 200)
        served = []
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=5,
        )
        queued = rb.migration.pending_count()
        assert queued > 5
        report = rb.run(
            interleave=lambda: served.append(assert_exact(arr, truth))
        )
        assert not report.aborted
        assert report.ticks >= queued // 5
        assert report.throttle_hits > 0
        # Serving traffic really ran between ticks.
        assert len(served) >= report.ticks

    def test_progress_surfaces_in_metrics_snapshot(self, tmp_path):
        grid = make_grid(tmp_path, "met", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), ring(4, members=(0, 1, 2)), replication=K
        )
        populate(arr, 80)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=4,
        )
        rb.tick()
        snap = grid.metrics_snapshot()["rebalance"]
        (active,) = snap["active"]
        assert active["array"] == "sky"
        assert active["cells_moved"] > 0
        assert active["cells_remaining"] > 0
        assert rb.run().aborted is False
        snap = grid.metrics_snapshot()["rebalance"]
        assert snap["active"] == []
        (done,) = snap["completed"]
        assert done["array"] == "sky" and not done["aborted"]
        assert snap["cells_moved"] == done["cells_moved"]
        # Node liveness rows carry the retirement flag.
        assert all(
            n["retired"] is False
            for n in grid.metrics_snapshot()["nodes"]
        )


class TestDualResolveReads:
    def test_old_chain_dead_served_from_new_homes(self, tmp_path):
        """Pre-cutover, a partition whose entire old chain died is served
        from the new placement (exactly once) instead of raising."""
        grid = make_grid(tmp_path, "dual", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), ring(4), replication=1
        )
        truth = populate(arr, 120)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.without_member(1),
            max_transfer_cells_per_tick=10**9,
        )
        while rb.migration.pending_count():
            rb.tick()
        # Copies are at their new homes but the cutover hasn't happened:
        # node 1 still serves partition 1.  Kill it.
        grid.nodes[1].fail()
        assert_exact(arr, truth)
        assert grid.resilience_counters["dual_reads"] > 0
        assert_exact(arr, truth, WINDOW)
        # The migration still completes (deletes on the dead node skip).
        report = rb.run()
        assert not report.aborted
        assert 1 not in arr.partitioner.members
        assert_exact(arr, truth)

    def test_incomplete_new_homes_still_raise(self, tmp_path):
        """The fallback never serves a partial partition: with the old
        chain dead and the new homes missing cells, reads raise."""
        grid = make_grid(tmp_path, "dualgap", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=1)
        populate(arr, 120)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.without_member(1),
            max_transfer_cells_per_tick=1,
        )
        rb.tick()  # only one cell moved; most still live on node 1 only
        grid.nodes[1].fail()
        with pytest.raises(QuorumError):
            list(arr.scan())


    def test_dual_resolve_read_checks_deadline_per_chunk(self, tmp_path):
        """The deadline is checked at every chunk a dual-resolve read
        visits, not every 64 cells kept: a deadline that runs out while
        the read walks the new homes stops it, even though it has kept
        only a handful of the partition's cells."""
        grid = make_grid(tmp_path, "dualdeadline", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=1)
        populate(arr, 120)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.without_member(1),
            max_transfer_cells_per_tick=10**9,
        )
        while rb.migration.pending_count():
            rb.tick()
        grid.nodes[1].fail()
        deadline = Deadline.after_ms(60_000)
        trusted = rb.migration.trusted

        def expire_then_trust(coords, site):
            deadline.t_deadline = 0.0  # runs out at the first kept cell
            return trusted(coords, site)

        rb.migration.trusted = expire_then_trust
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError) as exc:
                arr._dual_resolve_read(1, None, None)
        assert "dual-resolve of partition 1" in exc.value.what


class TestDeterministicFailure:
    def test_dead_destination_aborts_with_diagnosis(self, tmp_path):
        inj = FaultInjector(seed=5)
        grid = make_grid(tmp_path, "abort", n_nodes=4, fault_injector=inj)
        arr = grid.create_array(
            "sky", schema(), ring(4, members=(0, 1, 2)), replication=K
        )
        truth = populate(arr, 100)
        old = arr.partitioner
        # Node 3 (the only fresh destination) dies mid-migration, on a
        # metered rebalance transfer (schedule_kill counts from now).
        inj.schedule_kill(3, after=10)
        report = grid.rebalance(
            "sky", old.with_member(3), max_transfer_cells_per_tick=8
        )
        assert report.aborted
        assert "dead" in report.reason
        # Rollback: the old placement serves, untouched and exact.
        assert arr.partitioner is old
        assert arr._migration is None
        assert_exact(arr, truth)

    def test_abort_rolls_back_delivered_copies(self, tmp_path):
        grid = make_grid(tmp_path, "rollback", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), ring(4, members=(0, 1, 2)), replication=K
        )
        truth = populate(arr, 100)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.with_member(3),
            max_transfer_cells_per_tick=16,
        )
        rb.tick()
        assert grid.nodes[3].cell_count("sky") > 0
        report = rb.abort("operator change of plan")
        assert report.aborted and report.cells_dropped > 0
        assert grid.nodes[3].cell_count("sky") == 0
        assert arr._migration is None
        assert_exact(arr, truth)

    def test_source_death_with_replicas_completes(self, tmp_path):
        """Killing a pure source (the node being drained) mid-migration
        must not abort: every copy it held exists on the next chain
        member, so reads fail over and the drain runs to completion."""
        grid = make_grid(tmp_path, "srcdeath", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=K)
        truth = populate(arr, 100)
        rb = grid.start_rebalance(
            "sky", arr.partitioner.without_member(1),
            max_transfer_cells_per_tick=8,
        )
        rb.tick()
        grid.nodes[1].fail()
        report = rb.run()
        assert not report.aborted
        assert 1 not in arr.partitioner.members
        assert_exact(arr, truth)

    def test_cutover_cleanup_survives_crash_and_replay(self, tmp_path):
        """WAL-logged deletes replay on rebuild, so a crash after cutover
        cannot resurrect stale old-home copies into service."""
        grid = make_grid(tmp_path, "walrep", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=K)
        truth = populate(arr, 120)
        report = grid.drain_node(0, max_transfer_cells_per_tick=10**9)[0]
        assert not report.aborted
        assert grid.nodes[0].cell_count("sky") == 0
        # Crash node 0 and rebuild it: its WAL holds the original writes
        # *and* the cutover deletes; replay must net out to empty.
        grid.nodes[0].fail()
        grid.rebuild_node(0)
        assert grid.nodes[0].cell_count("sky") == 0
        assert_exact(arr, truth)
        # The rebuild landed in the grid-wide rebuild log.
        assert grid.metrics_snapshot()["rebuilds"][-1]["node_id"] == 0


class TestMembershipChurnDrill:
    """Ten seeds of add + drain + kill during scans: zero wrong answers."""

    @pytest.mark.parametrize("seed", CHURN_SEEDS)
    def test_churn_drill(self, tmp_path, seed):
        grid = make_grid(tmp_path, f"churn{seed}", seed=seed)
        arr = grid.create_array(
            "sky", schema(), ring(N_NODES), replication=K
        )
        rng = random.Random(seed)
        truth = populate(arr, 120, seed=seed)
        checks = {"scans": 0}

        def serving_traffic():
            """The live workload every migration must interleave with:
            scans, window reads, and fresh writes (dual-homed)."""
            checks["scans"] += 1
            if checks["scans"] % 2:
                assert_exact(arr, truth)
            else:
                assert_exact(arr, truth, WINDOW)
            c = (rng.randint(1, 100), rng.randint(1, 100))
            v = float(1000 + checks["scans"])
            arr.write(c, (v,))
            truth[c] = v

        # Round 1: grow the grid under live traffic.
        nid, reports = grid.add_node(
            max_transfer_cells_per_tick=16, interleave=serving_traffic
        )
        assert all(not r.aborted for r in reports)
        assert_exact(arr, truth)

        # Round 2: kill a random member during scan traffic, keep
        # answering via failover, then rebuild it.
        victim = rng.choice(
            [m for m in grid.members() if m != nid]
        )
        grid.nodes[victim].fail()
        assert_exact(arr, truth)
        assert_exact(arr, truth, WINDOW)
        grid.rebuild_node(victim)
        assert_exact(arr, truth)

        # Round 3: drain a random member (possibly the one just
        # rebuilt) under live traffic, then retire it.
        doomed = rng.choice([m for m in grid.members() if m != nid])
        reports = grid.remove_node(
            doomed, max_transfer_cells_per_tick=16,
            interleave=serving_traffic,
        )
        assert all(not r.aborted for r in reports)
        assert grid.nodes[doomed].retired
        assert_exact(arr, truth)
        assert checks["scans"] > 0

        # Reconciliation: the rebalance meter accounts exactly for the
        # delivered copies; placement holds every cell on its chain.
        completed = grid.rebalance_snapshot()["completed"]
        total_copies = sum(r["copies_delivered"] for r in completed)
        assert grid.ledger.total_bytes("rebalance") >= (
            total_copies * arr.cell_nbytes
        )
        # Writes landed inside migration windows (dual-homed); whether
        # any needed an *extra* copy ("rebalance_dual" meter) depends on
        # which cells the seed hit, so only the recorded count is stable.
        assert sum(r["dual_writes"] for r in completed) > 0
        for coords in truth:
            chain = arr.replica_sites(coords)
            assert doomed not in chain
            for site in chain:
                assert grid.nodes[site].has_cell("sky", coords), (
                    f"seed {seed}: {coords} missing from chain site {site}"
                )


class TestRebalanceAdvisor:
    def make_hot_grid(self, tmp_path):
        """A range-partitioned array with a hotspot: most cells land on
        one site, driving imbalance() far above the threshold."""
        from repro.cluster import RangePartitioner

        grid = make_grid(tmp_path, "advisor", n_nodes=4)
        part = RangePartitioner(4, dim=0, boundaries=[25, 50, 75])
        arr = grid.create_array("sky", schema(), part, replication=K)
        rng = random.Random(11)
        truth = {}
        while len(truth) < 150:
            # Sky-survey hotspot: 80% of observations in x <= 25.
            x = rng.randint(1, 25) if rng.random() < 0.8 else rng.randint(26, 100)
            truth[(x, rng.randint(1, 100))] = float(len(truth))
        arr.load(LoadRecord(c, (v,)) for c, v in truth.items())
        return grid, arr, truth

    def test_triggers_past_threshold_and_recovers(self, tmp_path):
        grid, arr, truth = self.make_hot_grid(tmp_path)
        advisor = RebalanceAdvisor(
            grid, threshold=1.25, max_transfer_cells_per_tick=32
        )
        assert arr.imbalance() > advisor.threshold
        report = advisor.check(
            "sky", interleave=lambda: assert_exact(arr, truth)
        )
        assert report is not None and not report.aborted
        assert isinstance(arr.partitioner, ConsistentHashPartitioner)
        assert arr.imbalance() <= advisor.threshold
        assert_exact(arr, truth)
        entry = advisor.history[-1]
        assert entry["triggered"]
        assert entry["imbalance_after"] <= advisor.threshold

    def test_no_trigger_below_threshold(self, tmp_path):
        grid = make_grid(tmp_path, "calm", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=K)
        populate(arr, 150)
        advisor = RebalanceAdvisor(grid, threshold=1.25)
        assert advisor.check("sky") is None
        assert advisor.history[-1]["triggered"] is False

    def test_no_trigger_on_tiny_arrays(self, tmp_path):
        grid = make_grid(tmp_path, "tiny", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=K)
        arr.write((1, 1), (1.0,))
        arr.flush()
        advisor = RebalanceAdvisor(grid, threshold=1.01, min_cells=32)
        assert advisor.check("sky") is None


class TestImbalanceEdgeCases:
    """Satellite: imbalance() at the boundaries of liveness."""

    def make(self, tmp_path, sub="imb", n_nodes=4):
        grid = make_grid(tmp_path, sub, n_nodes=n_nodes)
        arr = grid.create_array("sky", schema(), ring(n_nodes), replication=1)
        populate(arr, 80)
        return grid, arr

    def test_all_nodes_dead_is_zero(self, tmp_path):
        grid, arr = self.make(tmp_path)
        for node in grid.nodes:
            node.fail()
        assert arr.imbalance() == 0.0

    def test_single_alive_node_is_balanced(self, tmp_path):
        grid, arr = self.make(tmp_path, "imb1")
        for node in grid.nodes[1:]:
            node.fail()
        assert arr.imbalance() == 1.0

    def test_dead_nodes_excluded_from_mean(self, tmp_path):
        """A crash must not inflate the metric when survivors are even."""
        grid, arr = self.make(tmp_path, "imb2")
        healthy = arr.imbalance()
        grid.nodes[0].fail()
        after = arr.imbalance()
        # The mean is over alive nodes only, so killing one cannot blow
        # the ratio up by a factor of n/(n-1) artificially.
        assert after <= healthy * 1.5 + 0.5

    def test_empty_array_is_zero(self, tmp_path):
        grid = make_grid(tmp_path, "imb3", n_nodes=4)
        arr = grid.create_array("sky", schema(), ring(4), replication=1)
        assert arr.imbalance() == 0.0


class TestRepartitionThroughFailure:
    """Satellite: repartition() with a node down mid-flight."""

    def test_repartition_with_dead_node(self, tmp_path):
        grid = make_grid(tmp_path, "rpf", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), HashPartitioner(4), replication=K
        )
        truth = populate(arr, 120)
        grid.nodes[2].fail()
        moved = arr.repartition(HashPartitioner(4, dims=[0]))
        assert moved > 0
        assert_exact(arr, truth)

    def test_repartition_to_ring_through_failure(self, tmp_path):
        grid = make_grid(tmp_path, "rpf2", n_nodes=4)
        arr = grid.create_array(
            "sky", schema(), HashPartitioner(4), replication=K
        )
        truth = populate(arr, 120)
        grid.nodes[1].fail()
        arr.repartition(ring(4))
        assert_exact(arr, truth)


class TestExtentHighWater:
    """Satellite: _extent() is O(1) bookkeeping, not a storage rescan."""

    def test_highwater_tracks_writes(self, tmp_path):
        grid = make_grid(tmp_path, "hw", n_nodes=2)
        sch = define_array("log", {"v": "float"}, ["t"]).bind(["*"])
        arr = grid.create_array("log", sch, ring(2), replication=1)
        arr.load([LoadRecord((t,), (1.0,)) for t in (3, 17, 9)])
        assert arr._extent(0) == 17
        arr.write((40,), (2.0,))
        assert arr._extent(0) == 40
        # No storage scan involved: the high-water survives node death.
        for node in grid.nodes:
            node.fail()
        assert arr._extent(0) == 40

    def test_filter_and_apply_inherit_highwater(self, tmp_path):
        grid = make_grid(tmp_path, "hw2", n_nodes=2)
        sch = define_array("log", {"v": "float"}, ["t"]).bind(["*"])
        arr = grid.create_array("log", sch, ring(2), replication=1)
        arr.load([LoadRecord((t,), (float(t),)) for t in range(1, 11)])
        hot = arr.filter(lambda c: c.v > 5.0, output_name="hot")
        assert hot._extent(0) == 10
        doubled = arr.apply(
            lambda c: c.v * 2, output=[("d", "float")], output_name="dbl"
        )
        assert doubled._extent(0) == 10
        out = doubled.regrid([5], "count")
        assert out[1].count == 5 and out[2].count == 5
