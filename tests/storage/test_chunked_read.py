"""The chunked persistent-array read against a dict oracle.

``PersistentArray.read`` pastes buffered cells, then every bucket's
windowed slab newest first beneath them, then empties tombstoned cells.
Hypothesis drives random appends (NULLs included), overwrites across
spills, deletes and small-bucket merges into one array and a plain dict,
then checks windowed reads, value-pruned reads with and without bucket
statistics, and point reads against the dict.  Runs are derandomized so
every failure reproduces.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import define_array
from repro.core.errors import StorageError
from repro.query.stats import Interval
from repro.storage.manager import PersistentArray

pytestmark = pytest.mark.tier1

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SIDE = 12
#: one buffered cell costs 8 * ndim + 16 * attrs = 32 bytes: a spill
#: every five distinct buffered cells
BUDGET = 5 * 32

coords = st.tuples(st.integers(1, SIDE), st.integers(1, SIDE))
values = st.one_of(st.none(), st.integers(-20, 20).map(float))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), coords, values),
        st.tuples(st.just("delete"), coords),
        st.tuples(st.just("flush")),
        st.tuples(st.just("merge"), st.sampled_from([4, 16, 1 << 20])),
    ),
    max_size=60,
)
windows = st.tuples(coords, coords).map(
    lambda w: (tuple(map(min, *w)), tuple(map(max, *w)))
)


def make_array(directory):
    schema = define_array("S", {"v": "float"}, ["x", "y"]).bind([SIDE, SIDE])
    return PersistentArray(schema, directory, memory_budget=BUDGET, stride=(4, 4))


def replay(arr, script):
    """Apply *script* to *arr* and return the dict oracle of its cells."""
    oracle = {}
    for op in script:
        if op[0] == "append":
            arr.append(op[1], None if op[2] is None else (op[2],))
            oracle[op[1]] = op[2]
        elif op[0] == "delete":
            assert arr.delete(op[1]) == (op[1] in oracle)
            oracle.pop(op[1], None)
        elif op[0] == "flush":
            arr.flush()
        else:
            arr.merge_small_buckets(min_cells=op[1])
    return oracle


def read(arr, window=None, attr_ranges=None):
    return {
        c: None if cell is None else cell.v
        for c, cell in arr.read(window, attr_ranges).cells()
    }


def inside(c, window):
    return all(l <= x <= h for x, l, h in zip(c, *window))


class TestReadMatchesOracle:
    @settings(max_examples=150, **SETTINGS)
    @given(script=ops, window=windows)
    def test_windowed_read(self, script, window):
        with tempfile.TemporaryDirectory() as tmp:
            arr = make_array(tmp)
            oracle = replay(arr, script)
            assert read(arr) == oracle
            assert read(arr, window) == {
                c: v for c, v in oracle.items() if inside(c, window)
            }
            assert arr.live_cells == len(oracle)

    @settings(max_examples=100, **SETTINGS)
    @given(script=ops, lo=st.integers(-25, 25), with_stats=st.booleans())
    def test_value_pruned_read(self, script, lo, with_stats):
        ranges = {"v": Interval(lo=float(lo))}
        with tempfile.TemporaryDirectory() as tmp:
            arr = make_array(tmp)
            oracle = replay(arr, script)
            if not with_stats:
                arr.invalidate_stats()
            got = read(arr, attr_ranges=ranges)
            assert set(got) == set(oracle)
            for c, v in oracle.items():
                if not with_stats or (v is not None and v >= lo):
                    assert got[c] == v  # a cell that can match is never pruned
                else:
                    assert got[c] in (v, None)  # pruned: its footprint is NULL

    @settings(max_examples=100, **SETTINGS)
    @given(script=ops)
    def test_point_reads(self, script):
        with tempfile.TemporaryDirectory() as tmp:
            arr = make_array(tmp)
            oracle = replay(arr, script)
            for c in {op[1] for op in script if op[0] in ("append", "delete")}:
                if c in oracle:
                    got = arr.get(c)
                    assert (None if got is None else got.v) == oracle[c]
                else:
                    with pytest.raises(StorageError):
                        arr.get(c)


class TestReadShapes:
    def test_pruned_bucket_reads_back_null_buffer_keeps_values(self, tmp_path):
        arr = make_array(tmp_path)
        for x in range(1, 9):
            arr.append((x, 1), (float(x),))
        arr.flush()
        arr.append((9, 9), (1.0,))  # buffered, never spilled
        got = read(arr, attr_ranges={"v": Interval(lo=100.0)})
        assert got == {**{(x, 1): None for x in range(1, 9)}, (9, 9): 1.0}

    def test_merge_keeps_a_newer_large_bucket_newest(self, tmp_path):
        arr = make_array(tmp_path)
        arr.append((1, 1), (1.0,))
        arr.flush()  # bucket 0: one cell, small
        arr.append((1, 1), (2.0,))
        arr.append((4, 4), (3.0,))
        arr.flush()  # bucket 1: the whole 4x4 tile, newer
        arr.append((6, 6), (4.0,))
        arr.flush()  # bucket 2: small, same merge group as bucket 0
        arr.merge_small_buckets(min_cells=16)
        assert read(arr)[(1, 1)] == 2.0
        assert arr.get((1, 1)).v == 2.0

    def test_merge_during_read_keeps_newest_first(self, tmp_path, monkeypatch):
        """A merge that unlinks the bucket files a read snapshotted sends
        the read back to the R-tree; the merged bucket is pasted before
        older survivors, so rewritten cells keep their latest value."""
        arr = make_array(tmp_path)
        for x in range(1, 9):
            arr.append((x, 1), (float(x),))
        arr.flush()
        for x in range(1, 9, 2):
            arr.append((x, 1), (float(x) + 100.0,))
        arr.flush()
        load = arr._load_bucket
        merged = []

        def merge_then_load(bucket_id):
            if not merged:
                merged.append(arr.merge_small_buckets(min_cells=1 << 20))
            return load(bucket_id)

        monkeypatch.setattr(arr, "_load_bucket", merge_then_load)
        got = read(arr)
        assert merged[0] > 0
        assert got == {
            (x, 1): float(x) + (100.0 if x % 2 else 0.0) for x in range(1, 9)
        }


class _NoIteration(set):
    def __iter__(self):
        raise AssertionError("the live set was copied")


class TestPointRead:
    def test_get_is_newest_null_and_deleted(self, tmp_path):
        arr = make_array(tmp_path)
        for x in range(1, SIDE + 1):
            for y in range(1, SIDE + 1):
                arr.append((x, y), (float(x * y),))
        arr.flush()
        arr.append((2, 3), (-1.0,))  # rewrite, spilled
        arr.append((5, 5), None)  # NULL, spilled
        arr.flush()
        arr.append((7, 7), (-2.0,))  # rewrite, still buffered
        arr.delete((9, 9))
        arr._live_coords = _NoIteration(arr._live_coords)
        assert arr.get((2, 3)).v == -1.0
        assert arr.get((5, 5)) is None
        assert arr.get((7, 7)).v == -2.0
        assert arr.get((1, 12)).v == 12.0
        with pytest.raises(StorageError):
            arr.get((9, 9))
