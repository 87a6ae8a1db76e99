"""Cross-checks of the engine's vectorised paths on SS-DB data.

The chunk kernels (block apply/filter, aggregate_all) and the dense numpy
routes (dense sjoin, dense remove_dimension) must agree with the generic
cell-by-cell paths on the same data, including at sizes that don't divide
evenly into chunks or regrid factors.
"""

import numpy as np
import pytest

from repro import SciArray, define_array
from repro.core import ops
from repro.core.ops.content import aggregate_all
from repro.bench.ssdb import SSDB


@pytest.mark.parametrize("side,epochs", [(7, 2), (16, 3), (25, 5)])
class TestBackendsAgreeAtOddSizes:
    def test_all_queries(self, side, epochs):
        db = SSDB(side=side, epochs=epochs, seed=side)
        native = db.run_all("native")
        table = db.run_all("table")
        assert native["Q1"] == pytest.approx(table["Q1"])
        assert native["Q3"] == pytest.approx(table["Q3"])
        assert native["Q4"] == pytest.approx(table["Q4"])
        assert native["Q5"] == table["Q5"]
        assert native["Q6"] == table["Q6"]
        assert native["Q7"] == pytest.approx(table["Q7"])
        assert native["Q8"] == pytest.approx(table["Q8"])


class TestBlockPathsVsGenericPaths:
    def make(self, shape=(9, 13), seed=1):
        rng = np.random.default_rng(seed)
        schema = define_array("V", {"v": "float"}, ["x", "y"])
        return SciArray.from_numpy(schema, rng.normal(size=shape))

    def test_block_apply_matches_cell_apply(self):
        arr = self.make()
        cellwise = ops.apply(arr, lambda c: c.v * 3 + 1, [("w", "float")])
        blockwise = ops.apply(
            arr, lambda c: c.v * 3 + 1, [("w", "float")],
            block_fn=lambda b: b["v"] * 3 + 1,
        )
        assert blockwise.content_equal(cellwise)

    def test_block_filter_matches_cell_filter(self):
        arr = self.make()
        cellwise = ops.filter(arr, lambda c: c.v > 0)
        blockwise = ops.filter(
            arr, lambda c: c.v > 0, block_predicate=lambda b: b["v"] > 0
        )
        assert blockwise.content_equal(cellwise)

    def test_block_filter_rejects_bad_shape(self):
        from repro import SchemaError

        arr = self.make()
        with pytest.raises(SchemaError):
            ops.filter(arr, block_predicate=lambda b: np.array([True]))

    def test_block_paths_fall_back_on_sparse(self):
        # Block forms run on sparse arrays too, seeing PRESENT values only,
        # and agree with the per-cell forms on the same array.
        schema = define_array("S", {"v": "float"}, ["x"])
        sparse = schema.create("s", [10])
        sparse[3] = 1.0
        sparse[5] = -2.0
        sparse.set_null(7)
        blockwise = ops.filter(sparse, block_predicate=lambda b: b["v"] > 0)
        cellwise = ops.filter(sparse, lambda c: c.v > 0)
        assert blockwise.content_equal(cellwise)
        assert blockwise[3].v == 1.0 and blockwise[5] is None
        applied = ops.apply(
            sparse, output=[("w", "float")], block_fn=lambda b: b["v"] * 3 + 1
        )
        assert applied.content_equal(
            ops.apply(sparse, lambda c: c.v * 3 + 1, [("w", "float")])
        )

    def test_aggregate_all_dense_vs_sparse_paths(self):
        arr = self.make(shape=(11, 11), seed=2)
        dense_avg = aggregate_all(arr, "avg")
        # Punch a NULL to force the generic fold; recompute expectation.
        arr.set_null((1, 1))
        sparse_avg = aggregate_all(arr, "avg")
        values = [c.v for _, c in arr.cells(include_null=False)]
        assert sparse_avg == pytest.approx(sum(values) / len(values))
        assert dense_avg != pytest.approx(sparse_avg)

    def test_dense_sjoin_matches_generic_at_odd_sizes(self):
        rng = np.random.default_rng(3)
        a_schema = define_array("A", {"a": "float"}, ["x", "y"])
        b_schema = define_array("B", {"b": "float"}, ["x", "y"])
        a = SciArray.from_numpy(a_schema, rng.normal(size=(5, 9)))
        b = SciArray.from_numpy(b_schema, rng.normal(size=(5, 9)))
        fast = ops.sjoin(a, b, on=[("x", "x"), ("y", "y")])
        # Sparse copy of a forces the generic hash-join path.
        a2 = a_schema.create("a2", [5, 9])
        for coords, cell in a.cells():
            a2.set(coords, cell)
        a2.set_null((5, 9))
        generic = ops.sjoin(a2, b, on=[("x", "x"), ("y", "y")])
        for coords, cell in generic.cells(include_null=False):
            assert fast[coords].a == pytest.approx(cell.a)
            assert fast[coords].b == pytest.approx(cell.b)

    def test_dense_remove_dimension_matches_generic(self):
        schema = define_array("R", {"v": "float"}, ["x", "y", "z"])
        data = np.random.default_rng(4).normal(size=(4, 6, 1))
        dense = SciArray.from_numpy(schema, data)
        fast = ops.remove_dimension(dense, "z")
        sparse = schema.create("s", [4, 6, 1])
        for coords, cell in dense.cells():
            sparse.set(coords, cell)
        sparse.set_null((4, 6, 1))
        generic = ops.remove_dimension(sparse, "z")
        for coords, cell in generic.cells(include_null=False):
            assert fast[coords].v == pytest.approx(cell.v)
