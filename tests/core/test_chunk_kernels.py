"""Chunk kernels ≡ the per-cell reference path (hypothesis).

Every local content operator runs as one kernel over each chunk's data
planes and state mask.  The per-cell loop remains for Python callables and
user aggregates, so each property drives both paths on the same random
array — a builtin aggregate against a renamed copy of it, a compiled or
block predicate against the equivalent Python callable — and demands the
same cells, NULLs, EMPTYs and high-water marks.

The arrays mix PRESENT, NULL and EMPTY cells (deleted cells included),
NaN and signed zeros, a float64 and an int64 plane, chunk shapes that do
not divide the bounds, and at most one unbounded dimension.
"""

import itertools
import math
import operator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SciArray, define_array
from repro.core import ops
from repro.core.ops.content import aggregate_all
from repro.core.udf import UserAggregate, get_aggregate
from repro.query.ast import AttrPredicate, PredicateConjunction

pytestmark = pytest.mark.tier1

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

AGGREGATES = ("sum", "count", "avg", "min", "max", "stdev")
COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

floats = st.one_of(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    st.sampled_from([float("nan"), 0.0, -0.0, 1.5]),
)
ints = st.integers(-50, 50)


@st.composite
def arrays(draw):
    ndim = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 7), min_size=ndim, max_size=ndim))
    chunk_shape = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))
    unbounded = draw(st.none() | st.integers(0, ndim - 1))
    schema = define_array(
        "K", {"f": "float", "i": "int64"}, [f"d{k}" for k in range(ndim)]
    )
    bounds = ["*" if k == unbounded else s for k, s in enumerate(sizes)]
    arr = SciArray(schema.bind(bounds), name="K", chunk_shape=chunk_shape)
    states = ("empty", "present", "present", "present", "null", "deleted")
    for coords in itertools.product(*(range(1, s + 1) for s in sizes)):
        state = draw(st.sampled_from(states))
        if state == "null":
            arr.set_null(coords)
        elif state != "empty":
            arr.set(coords, (draw(floats), draw(ints)))
            if state == "deleted":
                arr.delete(coords)
    return arr


def reference(name):
    """The builtin aggregate under another name: the per-cell fold."""
    agg = get_aggregate(name)
    return UserAggregate(f"{name}_ref", agg.initial, agg.transition, agg.final)


def same_value(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def assert_same(got, want):
    assert got.bounds == want.bounds
    mine = {c: cell for c, cell in got.cells()}
    theirs = {c: cell for c, cell in want.cells()}
    assert mine.keys() == theirs.keys()
    for coords, cell in mine.items():
        other = theirs[coords]
        if cell is None or other is None:
            assert cell is other, coords
            continue
        assert len(cell) == len(other)
        assert all(same_value(a, b) for a, b in zip(cell, other)), coords


terms = st.lists(
    st.tuples(st.sampled_from("fi"), st.sampled_from(sorted(COMPARE)), floats | ints),
    max_size=3,
)


@settings(**SETTINGS)
@given(arrays(), terms)
def test_filter_mask_matches_cellwise(arr, conj):
    pred = PredicateConjunction(tuple(AttrPredicate(a, op, v) for a, op, v in conj))
    kernel = ops.filter(arr, block_predicate=pred.compiled.mask)
    cellwise = ops.filter(
        arr, lambda c: all(COMPARE[op](getattr(c, a), v) for a, op, v in conj)
    )
    assert_same(kernel, cellwise)


@settings(**SETTINGS)
@given(arrays())
def test_apply_block_fn_matches_cellwise(arr):
    output = [("g", "float"), ("j", "int64")]
    kernel = ops.apply(
        arr, output=output,
        block_fn=lambda b: {"g": b["f"] * 2 - b["i"], "j": b["i"] * 3},
    )
    cellwise = ops.apply(arr, lambda c: (c.f * 2 - c.i, c.i * 3), output)
    assert_same(kernel, cellwise)
    single = ops.apply(arr, output=[("g", "float")], block_fn=lambda b: b["f"] + 1)
    assert_same(single, ops.apply(arr, lambda c: c.f + 1, [("g", "float")]))


@settings(**SETTINGS)
@given(arrays(), st.sampled_from([["f"], ["i"], ["i", "f"]]))
def test_project_matches_cellwise(arr, attrs):
    types = {"f": "float", "i": "int64"}
    cellwise = ops.apply(
        arr, lambda c: tuple(getattr(c, a) for a in attrs),
        [(a, types[a]) for a in attrs],
    )
    assert_same(ops.project(arr, attrs), cellwise)


@settings(**SETTINGS)
@given(arrays(), st.sampled_from(AGGREGATES), st.sampled_from("fi"), st.data())
def test_aggregate_matches_cellwise(arr, agg, attr, data):
    dims = data.draw(st.permutations(arr.dim_names))
    group = dims[: data.draw(st.integers(1, len(dims)))]
    assert_same(
        ops.aggregate(arr, group, agg, attr=attr),
        ops.aggregate(arr, group, reference(agg), attr=attr),
    )


@settings(**SETTINGS)
@given(arrays(), st.sampled_from(AGGREGATES), st.sampled_from("fi"))
def test_aggregate_all_matches_cellwise(arr, agg, attr):
    got = aggregate_all(arr, agg, attr=attr)
    want = aggregate_all(arr, reference(agg), attr=attr)
    assert same_value(got, want)
    assert type(got) is type(want)


@settings(**SETTINGS)
@given(arrays(), st.sampled_from(AGGREGATES), st.sampled_from("fi"), st.data())
def test_regrid_matches_cellwise(arr, agg, attr, data):
    factors = data.draw(
        st.lists(st.integers(1, 4), min_size=arr.ndim, max_size=arr.ndim)
    )
    assert_same(
        ops.regrid(arr, factors, agg, attr=attr),
        ops.regrid(arr, factors, reference(agg), attr=attr),
    )


@pytest.mark.parametrize("agg", ["min", "max"])
def test_min_max_keep_nan_only_when_it_folds_first(agg):
    schema = define_array("N", {"v": "float"}, ["x", "y"])
    arr = SciArray(schema.bind([2, 3]), chunk_shape=(1, 2))
    rows = ([float("nan"), 1.0, 2.0], [1.0, float("nan"), 0.5])
    for x, row in enumerate(rows, start=1):
        for y, v in enumerate(row, start=1):
            arr.set((x, y), v)
    kernel = ops.aggregate(arr, ["x"], agg)
    assert_same(kernel, ops.aggregate(arr, ["x"], reference(agg)))
    assert math.isnan(kernel[1][0])
    assert kernel[2][0] == (0.5 if agg == "min" else 1.0)
    assert math.isnan(aggregate_all(arr, agg))


def test_unbounded_high_water_follows_occupied_cells():
    schema = define_array("U", {"v": "float"}, ["x", "t"])
    arr = SciArray(schema.bind([2, "*"]), chunk_shape=(2, 3))
    arr.set((1, 1), 1.0)
    arr.set_null((2, 4))
    arr.set((1, 7), 2.0)
    arr.delete((1, 7))
    for out in (
        ops.filter(arr, block_predicate=lambda b: b["v"] > 0),
        ops.project(arr, ["v"]),
        ops.apply(arr, output=[("w", "float")], block_fn=lambda b: b["v"]),
    ):
        assert out.bounds == (2, 4)
    assert ops.aggregate(arr, ["t"], "sum").bounds == (1,)


def test_object_planes_compare_and_fold_per_value():
    schema = define_array("T", {"tag": "string", "v": "float"}, ["x"])
    arr = schema.create("T", [5])
    arr[1] = ("hot", 1.0)
    arr[2] = ("cold", 2.0)
    arr.set_null(3)
    arr[5] = ("hot", float("nan"))
    pred = PredicateConjunction(
        (AttrPredicate("tag", "=", "hot"), AttrPredicate("v", "!=", "x"))
    )
    kernel = ops.filter(arr, block_predicate=pred.compiled.mask)
    cellwise = ops.filter(arr, lambda c: c.tag == "hot" and c.v != "x")
    assert_same(kernel, cellwise)
    assert [c for c, cell in kernel.cells(include_null=False)] == [(1,), (5,)]
    huge = PredicateConjunction((AttrPredicate("v", "<", 2**70),))  # no numpy dtype
    assert_same(
        ops.filter(arr, block_predicate=huge.compiled.mask),
        ops.filter(arr, lambda c: c.v < 2**70),
    )
    assert aggregate_all(arr, "min", attr="tag") == "cold"


def test_fold_memory_follows_present_cells():
    schema = define_array("B", {"v": "float"}, ["x", "y"])
    arr = SciArray(schema.bind([10**6, 10**6]))  # a 10**12-cell box
    arr.set((5, 5), 1.0)
    arr.set((999_999, 3), 2.0)
    assert ops.aggregate(arr, ["x", "y"], "sum").count_present() == 2
    assert ops.regrid(arr, [10, 10], "max")[100_000, 1][0] == 2.0
