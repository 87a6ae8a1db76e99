"""Content-dependent operators (Section 2.2.2).

Operators "whose result depends on the data that is stored in the input
array":

* :func:`filter` — keeps cells whose record satisfies a predicate; cells
  failing it become **NULL** (not EMPTY), per the paper: "A(v) will contain
  A(v) if P(A(v)) evaluates to true, otherwise it will contain NULL".
* :func:`aggregate` — groups on a subset of *dimensions* (data attributes
  cannot be used for grouping, as the paper notes) and folds each
  (n-k)-dimensional group through an aggregate function (Fig. 2).
* :func:`cjoin` — content-based join with a predicate over data values
  only; the result is (m + n)-dimensional with NULLs where the predicate is
  false (Fig. 3).
* :func:`apply` / :func:`project` — per-cell computation and record
  narrowing.
* :func:`regrid` — the regridding the paper singles out as a key science
  operation (Section 2.3): coarsen an array by integer factors, combining
  each block with an aggregate.

Each operator has one implementation: a kernel run chunk by chunk over
each :class:`~repro.core.array.Chunk`'s ``data`` planes and ``state``
mask.  Kernels see PRESENT values only, so dense and sparse arrays, NULL
and EMPTY cells and unbounded dimensions all take the same path.  A
per-cell loop remains only where numpy cannot do the work, which the
inputs say: a Python callable (``predicate=``, ``fn=``, a text-language
UDF), a user-defined aggregate, or an aggregate over an object-typed plane.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..array import Chunk, SciArray
from ..cells import Cell, CellState
from ..datatypes import FLOAT64, INT64, ScalarType, get_type
from ..errors import SchemaError
from ..schema import ArraySchema, Attribute, Dimension
from ..udf import BUILTIN_AGGREGATES, UserAggregate, get_aggregate
from . import register_operator

__all__ = ["filter", "aggregate", "cjoin", "apply", "project", "regrid"]

Coords = tuple[int, ...]
AggSpec = Union[str, UserAggregate]
#: One chunk's PRESENT values: attribute name -> 1-D plane.
Planes = dict[str, np.ndarray]
#: Partial aggregate states: flat group keys and one state column each.
Folded = tuple[np.ndarray, Planes]

#: Aggregates the fold kernel computes with numpy.  Matched by identity,
#: so a user aggregate registered under a builtin's name folds per cell.
_ALGEBRAIC = {a.name: a for a in BUILTIN_AGGREGATES}


def _resolve_aggregate(agg: AggSpec) -> UserAggregate:
    if isinstance(agg, UserAggregate):
        return agg
    return get_aggregate(agg)


def _attr_of(array: SciArray, attr: Optional[str]) -> str:
    """The checked attribute an aggregate folds: *attr*, or the first."""
    name = attr or array.schema.attr_names[0]
    array.schema.attribute(name)  # validates
    return name


def _kernel_aggregate(array: SciArray, agg: UserAggregate, attr: str) -> bool:
    """Whether the fold kernel computes *agg*: a builtin over a native plane."""
    kind = array.schema.attribute(attr).type
    native = isinstance(kind, ScalarType) and kind.numpy_dtype != object
    return native and _ALGEBRAIC.get(agg.name) is agg


def _present_planes(chunk: Chunk, present: np.ndarray) -> Planes:
    return {name: plane[present] for name, plane in chunk.data.items()}


def _checked(what: str, result: Any, n: int) -> np.ndarray:
    """A kernel callback's plane, which must hold one value per PRESENT cell."""
    plane = np.asarray(result)
    if plane.shape != (n,):
        raise SchemaError(f"{what} returned shape {plane.shape}, expected {(n,)}")
    return plane


def _map_chunks(
    array: SciArray,
    out: SciArray,
    kernel: Callable[[Chunk, np.ndarray, int, Chunk], None],
) -> SciArray:
    """Fill *out*, which shares *array*'s chunk grid, one chunk at a time.

    ``kernel(chunk, present, n_present, target)`` writes *target*'s
    planes; *target* starts with the input chunk's cell states, which the
    kernel may change (filter turns failing PRESENT cells NULL).
    """
    for key, chunk in array.chunk_items():
        target = Chunk(chunk.origin, chunk.shape, out.schema.attributes)
        target.state[...] = chunk.state
        present = chunk.state == CellState.PRESENT
        kernel(chunk, present, int(np.count_nonzero(present)), target)
        out.adopt_chunk(key, target)
    return out


def filter(
    array: SciArray,
    predicate: Optional[Callable[[Cell], bool]] = None,
    name: Optional[str] = None,
    block_predicate: Optional[Callable[[Planes], np.ndarray]] = None,
) -> SciArray:
    """Keep cells satisfying *predicate*; failures become NULL cells.

    The output has exactly the input's dimensions.  NULL input cells stay
    NULL (the predicate is never invoked on them); EMPTY stays EMPTY.

    *block_predicate* is the kernel form, used whenever it is given: a
    function from one chunk's PRESENT values (attribute name -> 1-D
    plane) to a boolean array of the same length.  A per-cell
    *predicate* alone runs the per-cell loop.
    """
    if predicate is None and block_predicate is None:
        raise SchemaError("filter needs a predicate or a block_predicate")
    out = array.empty_like(name=name or f"{array.name}_filtered")
    if block_predicate is None:
        for coords, cell in array.cells():
            keep = cell is not None and predicate(cell)
            out.set_unchecked(coords, cell.values if keep else None)
        return out

    def kernel(chunk, present, n, target):
        for attr, plane in chunk.data.items():
            target.data[attr][...] = plane
        if n:
            keep = block_predicate(_present_planes(chunk, present))
            keep = _checked("block_predicate", keep, n).astype(bool)
            target.state[present] = np.where(keep, CellState.PRESENT, CellState.NULL)

    return _map_chunks(array, out, kernel)


def aggregate(
    array: SciArray,
    group_dims: Sequence[str],
    agg: AggSpec,
    attr: Optional[str] = None,
    name: Optional[str] = None,
) -> SciArray:
    """Group-by-dimensions aggregation — ``Aggregate(H, {Y}, Sum(*))``.

    *group_dims* lists the k dimensions retained in the output; the
    aggregate folds, for each combination of their values, all PRESENT
    cells of the complementary (n-k)-dimensional slice.  *attr* selects the
    record component to aggregate (default: the first — the paper's ``*``
    for single-value arrays).  Groups whose slice holds no PRESENT cell are
    EMPTY in the output.
    """
    return _grouped(array, *_aggregate_plan(array, group_dims, agg, attr, name))


def _aggregate_plan(array, group_dims, agg, attr, name) -> tuple:
    """:func:`aggregate`'s checked inputs to :func:`_grouped` over *array*
    (a :class:`SciArray`, or a grid array, which folds them itself)."""
    if not group_dims:
        raise SchemaError("aggregate needs at least one grouping dimension; "
                          "use aggregate_all for a scalar reduction")
    if len(set(group_dims)) != len(group_dims):
        raise SchemaError("duplicate grouping dimensions")
    positions = [array.schema.dim_index(d) for d in group_dims]
    aggregate_fn, attr_name = _resolve_aggregate(agg), _attr_of(array, attr)
    out = _result_array(
        array, name, "agg", aggregate_fn,
        [array.schema.dimensions[p] for p in positions],
    )
    shape = tuple(array.high_water(p) for p in positions)
    return (
        out, aggregate_fn, attr_name, shape,
        lambda coords: [coords[p] - 1 for p in positions],
    )


def _result_array(array, name: Optional[str], suffix: str,
                  agg: UserAggregate, dims: Sequence[Dimension]) -> SciArray:
    """The empty output of aggregate *agg* over *dims*, named after *array*."""
    schema = ArraySchema(
        name=name or f"{array.schema.name}_{suffix}",
        attributes=(Attribute(agg.name, _result_type(agg)),),
        dimensions=tuple(dims),
    )
    return SciArray(schema, name=name or f"{array.name}_{suffix}")


def aggregate_all(array: SciArray, agg: AggSpec, attr: Optional[str] = None) -> Any:
    """Scalar reduction over every PRESENT cell (no grouping dimensions)."""
    aggregate_fn = _resolve_aggregate(agg)
    attr_name = attr or array.attr_names[0]
    if not _kernel_aggregate(array, aggregate_fn, attr_name):
        return aggregate_fn.compute(
            getattr(cell, attr_name)
            for _, cell in array.cells(include_null=False)
        )
    folded = _fold(
        array, attr_name, aggregate_fn.name, (1,),
        lambda coords: [np.zeros_like(coords[0])],
    )
    if folded is None:
        return aggregate_fn.compute(())
    return _finish(aggregate_fn.name, folded[1])[0].item()


def _grouped(
    array: SciArray,
    out: SciArray,
    agg: UserAggregate,
    attr: str,
    shape: tuple[int, ...],
    group_of: Callable[[Sequence[Any]], list],
) -> SciArray:
    """Fold each PRESENT *attr* value into the *out* cell its coordinates
    map to: *group_of* turns 1-based coordinates (ints, or one array per
    dimension) into 0-based group coordinates within the *shape* box.
    Groups no PRESENT cell feeds stay EMPTY."""
    if _kernel_aggregate(array, agg, attr):
        folded = _fold(array, attr, agg.name, shape, group_of)
        if folded is not None:
            _place(out, shape, agg.name, folded)
        return out
    groups: dict[Coords, Any] = {}
    for coords, cell in array.cells(include_null=False):
        key = tuple(g + 1 for g in group_of(coords))
        state = groups[key] if key in groups else agg.initial()
        groups[key] = agg.transition(state, getattr(cell, attr))
    for key, state in groups.items():
        out.set(key, agg.final(state))
    return out


def _place(
    out: SciArray, shape: tuple[int, ...], agg: str, folded: Folded
) -> None:
    """Write each *folded* group's *agg* result into *out*, whose cells
    are the *shape* box the groups' flat keys index."""
    keys, states = folded
    result = _finish(agg, states)
    groups = np.unravel_index(keys, shape)
    side = out.chunk_shape
    grid = tuple(-(-s // c) for s, c in zip(shape, side))
    chunk_ids = np.ravel_multi_index([g // c for g, c in zip(groups, side)], grid)
    (name,) = out.attr_names
    for chunk_id in np.unique(chunk_ids).tolist():
        mine = chunk_ids == chunk_id
        key = tuple(int(k) for k in np.unravel_index(chunk_id, grid))
        offsets = tuple(g[mine] - k * c for g, k, c in zip(groups, key, side))
        chunk = Chunk(tuple(k * c + 1 for k, c in zip(key, side)), side,
                      out.schema.attributes)
        chunk.state[offsets] = CellState.PRESENT
        chunk.data[name][offsets] = result[mine]
        out.adopt_chunk(key, chunk)


def _fold(
    array: SciArray,
    attr: str,
    agg: str,
    shape: tuple[int, ...],
    group_of: Callable[[Sequence[Any]], list],
) -> Optional[Folded]:
    """The fold kernel: builtin *agg*'s partial state over every PRESENT
    *attr* value, grouped as in :func:`_grouped`: the flat indices within
    *shape* of every group some cell feeds and each group's state columns
    (see :func:`_merge_states`), or ``None`` when no cell is PRESENT.
    Memory follows the PRESENT cells, not the *shape* box.
    """
    keys, values = [], []
    for _, chunk in array.chunk_items():
        present = chunk.state == CellState.PRESENT
        offsets = np.nonzero(present)
        if offsets[0].size:
            coords = [o + off for o, off in zip(chunk.origin, offsets)]
            keys.append(np.ravel_multi_index(group_of(coords), shape))
            values.append(chunk.data[attr][present])
    if not keys:
        return None
    values = np.concatenate(values)
    cells = {}
    if agg in ("count", "avg", "stdev"):
        cells["count"] = np.ones(values.size, dtype=np.int64)
    if agg in ("min", "max"):
        cells[agg] = values
    elif agg != "count":
        integral = agg == "sum" and values.dtype.kind in "biu"
        cells["sum"] = values.astype(np.int64 if integral else np.float64)
        if agg == "stdev":
            cells["squares"] = np.square(values, dtype=np.float64)
    return _merge_states([(np.concatenate(keys), cells)])


def _merge_states(partials: Sequence[Folded]) -> Folded:
    """Fold the rows of *partials* (flat group keys and state columns, in
    order) by key, each group in row order: ``count``, ``sum`` and
    ``squares`` add (floats one value at a time, as the per-cell fold
    does, so sums match it bitwise; int64 wraps past 2**63 as numpy's
    does), ``min`` and ``max`` keep NaN only when it is a group's first
    value, as Python's min/max fold does.  Returns the sorted distinct
    keys and their states."""
    keys = np.concatenate([k for k, _ in partials])
    states = {
        column: np.concatenate([st[column] for _, st in partials])
        for column in partials[0][1]
    }
    # One stable sort groups the rows, each group kept in row order.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    ids = np.repeat(np.arange(starts.size), np.diff(starts, append=keys.size))
    out: Planes = {}
    for column, rows in states.items():
        rows = rows[order]
        if column in ("min", "max"):
            folded = (np.fmin if column == "min" else np.fmax).reduceat(rows, starts)
            first = rows[starts]
            if first.dtype.kind == "f":
                folded = np.where(np.isnan(first), first, folded)
        elif rows.dtype.kind == "f":
            folded = np.zeros(starts.size)
            np.add.at(folded, ids, rows)
        else:
            folded = np.add.reduceat(rows, starts)
        out[column] = folded
    return keys[starts], out


def _finish(agg: str, states: Planes) -> np.ndarray:
    """Each group's *agg* result from its merged partial state."""
    if agg not in ("avg", "stdev"):
        return states[agg]
    count = states["count"]
    mean = states["sum"] / count
    if agg == "avg":
        return mean
    return np.maximum(states["squares"] / count - mean * mean, 0.0) ** 0.5


def _result_type(agg: UserAggregate) -> ScalarType:
    if agg.name == "count":
        return INT64
    return FLOAT64


def cjoin(
    left: SciArray,
    right: SciArray,
    predicate: Callable[[Cell, Cell], bool],
    name: Optional[str] = None,
) -> SciArray:
    """Content-based join (Fig. 3): predicate over data values only.

    The result is (m + n)-dimensional — the left dimensions followed by the
    right's.  Where both input cells are PRESENT and the predicate holds,
    the result holds the concatenated record; where both are PRESENT but the
    predicate fails, the result holds NULL (matching Fig. 3); combinations
    involving an EMPTY or NULL input cell are EMPTY.
    """
    out_dims = [Dimension(d.name, d.size) for d in left.schema.dimensions]
    used = {d.name for d in out_dims}
    for d in right.schema.dimensions:
        nm = d.name if d.name not in used else f"{d.name}_r"
        used.add(nm)
        out_dims.append(Dimension(nm, d.size))
    from .structural import _concat_attributes

    out_schema = ArraySchema(
        name=name or f"{left.schema.name}_cjoin_{right.schema.name}",
        attributes=tuple(_concat_attributes(left.schema, right.schema)),
        dimensions=tuple(out_dims),
    )
    out = SciArray(out_schema, name=name or f"{left.name}_cjoin_{right.name}")
    right_cells = [
        (coords, cell) for coords, cell in right.cells(include_null=False)
    ]
    for lcoords, lcell in left.cells(include_null=False):
        for rcoords, rcell in right_cells:
            if predicate(lcell, rcell):
                out.set_unchecked(lcoords + rcoords,
                                  lcell.values + rcell.values)
            else:
                out.set_unchecked(lcoords + rcoords, None)
    return out


def apply(
    array: SciArray,
    fn: Optional[Callable[[Cell], Any]] = None,
    output: Sequence[tuple[str, "str | ScalarType"]] = (),
    name: Optional[str] = None,
    block_fn: Optional[
        Callable[[Planes], "np.ndarray | dict[str, np.ndarray]"]
    ] = None,
) -> SciArray:
    """Per-cell computation producing a new record type.

    *fn* maps each PRESENT input record to the new record (tuple in
    *output* order, or bare value for a single output).  NULL cells map to
    NULL, EMPTY to EMPTY.

    *block_fn* is the kernel form, used whenever it is given: a function
    from one chunk's PRESENT values (attribute name -> 1-D plane) to the
    output plane (single output) or a dict of output planes, each of the
    same length.  A per-cell *fn* alone runs the per-cell loop.
    """
    if not output:
        raise SchemaError("apply needs at least one output component")
    if fn is None and block_fn is None:
        raise SchemaError("apply needs fn or block_fn")
    out_attrs = tuple(Attribute(n, get_type(t)) for n, t in output)
    out_schema = ArraySchema(
        name=name or f"{array.schema.name}_applied",
        attributes=out_attrs,
        dimensions=array.schema.dimensions,
    )
    out = SciArray(
        out_schema, name=name or f"{array.name}_applied",
        chunk_shape=array.chunk_shape,
    )
    if block_fn is None:
        for coords, cell in array.cells():
            if cell is None:
                out.set(coords, None)
                continue
            result = fn(cell)
            if len(out_attrs) == 1 and not isinstance(result, tuple):
                result = (result,)
            out.set(coords, result)
        return out

    def kernel(chunk, present, n, target):
        if not n:
            return
        result = block_fn(_present_planes(chunk, present))
        if not isinstance(result, Mapping):
            if len(out_attrs) != 1:
                raise SchemaError(
                    "block_fn returned one plane for a multi-component "
                    "output; return a dict of planes"
                )
            result = {out_attrs[0].name: result}
        missing = {a.name for a in out_attrs} - set(result)
        if missing:
            raise SchemaError(f"block_fn output missing planes {sorted(missing)}")
        for a in out_attrs:
            target.data[a.name][present] = _checked("block_fn", result[a.name], n)

    return _map_chunks(array, out, kernel)


def project(
    array: SciArray, attrs: Sequence[str], name: Optional[str] = None
) -> SciArray:
    """Narrow each record to the named components."""
    if not attrs:
        raise SchemaError("project needs at least one component")
    out_attrs = tuple(array.schema.attribute(a) for a in attrs)
    out_schema = ArraySchema(
        name=name or f"{array.schema.name}_proj",
        attributes=out_attrs,
        dimensions=array.schema.dimensions,
    )
    out = SciArray(
        out_schema, name=name or f"{array.name}_proj",
        chunk_shape=array.chunk_shape,
    )

    def kernel(chunk, present, n, target):
        for a in attrs:
            target.data[a][...] = chunk.data[a]

    return _map_chunks(array, out, kernel)


def regrid(
    array: SciArray,
    factors: Sequence[int],
    agg: AggSpec = "avg",
    attr: Optional[str] = None,
    name: Optional[str] = None,
) -> SciArray:
    """Coarsen by integer *factors*: output cell (i, j, …) aggregates the
    input block ``[(i-1)*f+1 .. i*f]`` per dimension.

    This is the canonical "regrid" the paper names as the operation science
    users actually want (Section 2.3).  Blocks cut short by the array's
    edge aggregate the cells they hold; blocks with no PRESENT cell are
    EMPTY.
    """
    return _grouped(array, *_regrid_plan(array, factors, agg, attr, name))


def _regrid_plan(array, factors, agg, attr, name) -> tuple:
    """:func:`regrid`'s checked inputs to :func:`_grouped`, as
    :func:`_aggregate_plan`."""
    dims = array.schema.dimensions
    if len(factors) != len(dims):
        raise SchemaError(f"regrid needs {len(dims)} factors, got {len(factors)}")
    if any(f < 1 for f in factors):
        raise SchemaError("regrid factors must be >= 1")
    aggregate_fn, attr_name = _resolve_aggregate(agg), _attr_of(array, attr)
    out_sizes = tuple(
        (array.high_water(d) + f - 1) // f for d, f in enumerate(factors)
    )
    out = _result_array(
        array, name, "regrid", aggregate_fn,
        [Dimension(d.name, s) for d, s in zip(dims, out_sizes)],
    )
    return (
        out, aggregate_fn, attr_name, out_sizes,
        lambda coords: [(c - 1) // f for c, f in zip(coords, factors)],
    )


register_operator("filter", filter)
register_operator("aggregate", aggregate)
register_operator("aggregate_all", aggregate_all)
register_operator("cjoin", cjoin)
register_operator("apply", apply)
register_operator("project", project)
register_operator("regrid", regrid)
