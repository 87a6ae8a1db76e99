"""Query-language content operators run as chunk kernels.

A textual ``filter`` compiles its predicate once and hands the executor's
counting mask to the filter kernel; ``project`` copies planes.  Neither
builds a per-cell record, so on a sparse array they must finish without
constructing a single :class:`~repro.core.cells.Cell`, and
``cells_examined`` counts exactly the PRESENT cells the mask saw.
"""

import numpy as np
import pytest

from repro.core.cells import Cell
from repro.database import SciDB

pytestmark = pytest.mark.tier1


@pytest.fixture
def sparse_db():
    db = SciDB()
    db.execute("define array Sky (a = float, b = float) (x, y)")
    db.execute("create S as Sky [40, 40]")
    arr = db.lookup("S")
    rng = np.random.default_rng(7)
    for x, y in rng.integers(1, 41, size=(300, 2)).tolist():
        if (x + y) % 5 == 0:
            arr.set_null((x, y))
        else:
            arr.set((x, y), (float(rng.random()), float(rng.random())))
    return db


def test_filter_and_project_build_no_cells(sparse_db, monkeypatch):
    arr = sparse_db.lookup("S")
    present = arr.count_present()
    assert 0 < present < arr.count_occupied() < 40 * 40
    expected = {
        c: cell.values
        for c, cell in arr.cells(include_null=False)
        if cell.a > 0.5 and cell.b <= 0.9
    }

    def no_cells(self, *args, **kwargs):
        raise AssertionError("a Cell was constructed")

    monkeypatch.setattr(Cell, "__init__", no_cells)
    result = sparse_db.execute("select filter(S, a > 0.5 and b <= 0.9)")
    projected = sparse_db.query("select project(S, b)")
    monkeypatch.undo()

    assert result.cells_examined == present
    out = result.array
    assert out.count_occupied() == arr.count_occupied()
    assert {c: cell.values for c, cell in out.cells(include_null=False)} == expected
    assert projected.attr_names == ("b",)
    assert projected.count_present() == present


def test_grid_operators_build_no_cells(tmp_path, monkeypatch):
    """Grid reads carry chunks from bucket to operator: with no fault
    injector attached, grid aggregate, regrid, subsample and filter read,
    restrict, fold and merge partition arrays without one Cell."""
    from repro.cluster.partitioning import BlockCyclicPartitioner
    from repro.core.ops import content, structural
    from repro.core.schema import define_array
    from repro.storage.loader import LoadRecord

    db = SciDB(tmp_path)
    grid = db.create_grid("g", n_nodes=3, replication=2)
    schema = define_array("Sky", {"v": "float"}, ["x", "y"]).bind([12, 12])
    darr = grid.create_array(
        "S", schema, BlockCyclicPartitioner(3, (4, 4)), stride=(4, 4)
    )
    rng = np.random.default_rng(3)
    darr.load(
        LoadRecord((x, y), (float(rng.random()),))
        for x in range(1, 13) for y in range(1, 13) if (x * y) % 7
    )
    db.register("S", darr)
    local = darr.materialize()

    def no_cells(self, *args, **kwargs):
        raise AssertionError("a Cell was constructed")

    monkeypatch.setattr(Cell, "__init__", no_cells)
    agg = db.query("select aggregate(S, {x}, sum(v))")
    coarse = db.query("select regrid(S, [4,4], avg(v))")
    window = db.query("select subsample(S, x >= 3 and x <= 9)")
    kept = db.query("select filter(S, v > 0.5)")
    monkeypatch.undo()

    def signature(arr):
        return {c: cell.values[0] for c, cell in arr.cells(include_null=False)}

    assert signature(agg) == pytest.approx(
        signature(content.aggregate(local, ["x"], "sum", "v")))
    assert signature(coarse) == pytest.approx(
        signature(content.regrid(local, [4, 4], "avg", "v")))
    assert signature(window) == signature(
        structural.subsample(local, {"x": (3, 9)}))
    assert signature(kept) == signature(
        content.filter(local, lambda cell: cell.v > 0.5))
