"""Ablations of the engine's own design choices (DESIGN.md §5).

Not paper claims — sanity checks that our implementation decisions carry
their weight:

* **A1 chunk kernels**: each content operator's one kernel over chunk
  planes and state masks (aggregate, regrid, filter from the query
  language, project) vs the per-cell loop kept for Python callables and
  user aggregates, on dense and sparse arrays;
* **A2 chunked vs single-chunk arrays**: the chunk grid must not tax
  region reads;
* **A3 auto codec choice**: 'auto' must track the best fixed codec per
  plane within a small factor.
"""

import timeit

import numpy as np
import pytest

from repro import SciArray, SciDB, define_aggregate, define_array
from repro.core import ops
from repro.storage.compression import best_codec, get_codec
from benchmarks.conftest import dense_2d

SIDE = 96
#: the A1 filter gate's array side: 65,536 cells
FILTER_SIDE = 256

# A sum-identical user aggregate: forces the per-cell fold.
define_aggregate(
    "ablation_sum", lambda: 0.0, lambda s, v: s + v, replace=True
)


def sparse_2d(side, seed=0):
    """dense_2d with about a third of its cells EMPTY and a tenth NULL."""
    arr = dense_2d(side, seed=seed)
    rng = np.random.default_rng(seed + 100)
    fate = rng.random((side, side))
    for x, y in np.argwhere(fate < 0.45).tolist():
        if fate[x, y] < 0.35:
            arr.delete((x + 1, y + 1))
        else:
            arr.set_null((x + 1, y + 1))
    return arr


def _filter_db(arr):
    db = SciDB()
    db.register("A", arr)
    return db


INPUTS = pytest.mark.parametrize("make", [dense_2d, sparse_2d], ids=["dense", "sparse"])


class TestA1ChunkKernels:
    @INPUTS
    def test_aggregate_kernel(self, benchmark, make):
        arr = make(SIDE, seed=0)
        out = benchmark(lambda: ops.aggregate(arr, ["y"], "sum"))
        assert out.bounds == (SIDE,)

    @INPUTS
    def test_aggregate_cellwise(self, benchmark, make):
        arr = make(SIDE, seed=0)
        out = benchmark(lambda: ops.aggregate(arr, ["y"], "ablation_sum"))
        assert out.bounds == (SIDE,)

    @INPUTS
    def test_regrid_kernel(self, benchmark, make):
        arr = make(SIDE, seed=1)
        benchmark(lambda: ops.regrid(arr, [8, 8], "sum"))

    @INPUTS
    def test_regrid_cellwise(self, benchmark, make):
        arr = make(SIDE, seed=1)
        benchmark(lambda: ops.regrid(arr, [8, 8], "ablation_sum"))

    @INPUTS
    def test_filter_kernel(self, benchmark, make):
        db = _filter_db(make(SIDE, seed=2))
        benchmark(lambda: db.query("select filter(A, v > 0.5)"))

    @INPUTS
    def test_filter_cellwise(self, benchmark, make):
        arr = make(SIDE, seed=2)
        benchmark(lambda: ops.filter(arr, lambda c: c.v > 0.5))

    @INPUTS
    def test_project_kernel(self, benchmark, make):
        arr = make(SIDE, seed=3)
        benchmark(lambda: ops.project(arr, ["v"]))

    @INPUTS
    def test_project_cellwise(self, benchmark, make):
        arr = make(SIDE, seed=3)
        benchmark(lambda: ops.apply(arr, lambda c: c.v, [("v", "float")]))

    @INPUTS
    def test_paths_agree_and_kernels_win(self, benchmark, make):
        from repro.bench.harness import measure, ratio

        arr = make(SIDE, seed=4)
        fast = measure(lambda: ops.aggregate(arr, ["y"], "sum"), repeats=3)
        slow = measure(
            lambda: ops.aggregate(arr, ["y"], "ablation_sum"), repeats=3
        )
        for (j,), cell in slow.result.cells(include_null=False):
            assert fast.result[j].sum == pytest.approx(cell.ablation_sum)
        assert ratio(slow, fast) > 5
        benchmark(lambda: None)

    @pytest.mark.parametrize(
        "make,floor", [(dense_2d, 50), (sparse_2d, 25)], ids=["dense", "sparse"]
    )
    def test_query_filter_50x_over_cellwise(self, benchmark, make, floor):
        # The kernel visits every chunk; the per-cell loop only occupied
        # cells, so the sparse array's floor is lower.
        arr = make(FILTER_SIDE, seed=5)
        db = _filter_db(arr)
        kernel = db.query("select filter(A, v > 0.5)")
        cellwise = ops.filter(arr, lambda c: c.v > 0.5)
        assert kernel.content_equal(cellwise)
        fast = min(timeit.repeat(
            lambda: db.query("select filter(A, v > 0.5)"), number=1, repeat=7
        ))
        slow = min(timeit.repeat(
            lambda: ops.filter(arr, lambda c: c.v > 0.5), number=1, repeat=2
        ))
        assert slow / fast >= floor
        benchmark(lambda: None)


class TestA2Chunking:
    @pytest.mark.parametrize("chunk_side", [8, 32, 96])
    def test_region_read_vs_chunk_side(self, benchmark, chunk_side):
        schema = define_array("A2", {"v": "float"}, ["x", "y"])
        arr = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(chunk_side, chunk_side))
        rng = np.random.default_rng(3)
        arr.set_region((1, 1), {"v": rng.normal(size=(SIDE, SIDE))})
        out = benchmark(lambda: arr.region((17, 17), (80, 80), attr="v"))
        assert out.shape == (64, 64)

    def test_chunked_matches_single_chunk(self, benchmark):
        data = np.random.default_rng(4).normal(size=(SIDE, SIDE))
        schema = define_array("A2b", {"v": "float"}, ["x", "y"])
        chunked = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(16, 16))
        single = SciArray(schema.bind([SIDE, SIDE]), chunk_shape=(SIDE, SIDE))
        chunked.set_region((1, 1), {"v": data})
        single.set_region((1, 1), {"v": data})
        np.testing.assert_array_equal(
            chunked.region((5, 5), (60, 60), attr="v"),
            single.region((5, 5), (60, 60), attr="v"),
        )
        benchmark(lambda: chunked.region((5, 5), (60, 60), attr="v"))


class TestA3AutoCodec:
    def test_auto_tracks_best(self, benchmark):
        rng = np.random.default_rng(5)
        planes = {
            "smooth": np.cumsum(rng.normal(0, 0.01, 4096)).reshape(64, 64),
            "flags": (rng.random((64, 64)) < 0.03).astype(np.int32),
            "noise": rng.normal(size=(64, 64)),
        }
        for name, plane in planes.items():
            chosen = best_codec(plane)
            chosen_size = len(chosen.encode(plane))
            best_fixed = min(
                len(get_codec(c).encode(plane))
                for c in ("none", "zlib", "delta", "rle")
            )
            assert chosen_size <= best_fixed  # 'auto' tries them all
        benchmark(lambda: best_codec(planes["smooth"]).name)
