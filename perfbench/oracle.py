"""The numpy oracle and the canonical answer comparison.

Every expected answer is computed with numpy from the generated inputs,
never by the engine under test.  Answers are compared canonically: the
CSV+ body's cells are sorted by coordinate before comparison, so cell
order does not matter, and values match within a relative tolerance of
1e-9, so a correct change to iteration or summation order still passes.

An answer is ``(dims, attrs, coords, values)``: ``coords`` an ``(n, d)``
integer array in row-major order and ``values`` an ``(n, k)`` float
array, one row per occupied cell.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

REL_TOL = 1e-9

Answer = tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]


def dense_cells(dims: tuple[str, ...], values: dict[str, np.ndarray],
                mask: Optional[np.ndarray] = None) -> Answer:
    """The answer holding *values*' cells where *mask* is true.

    Coordinates are 1-based positions in the planes, so an answer whose
    engine coordinates are rebased (a subsample window) is built from the
    window's planes.
    """
    planes = list(values.values())
    keep = np.ones(planes[0].shape, dtype=bool) if mask is None else mask
    coords = np.argwhere(keep) + 1
    cells = np.stack([np.asarray(p, dtype=float)[keep] for p in planes], axis=1)
    return tuple(dims), tuple(values), coords, cells


def parse_csvplus(body: str) -> Answer:
    """The answer in a shim CSV+ body (cells in body order).

    Raises :class:`ValueError` on a malformed body.
    """
    lines = body.splitlines()
    if not lines or not lines[0].startswith("{"):
        raise ValueError(f"no CSV+ header in {body[:80]!r}")
    dims_part, _, attrs_part = lines[0].partition(" ")
    dims = tuple(dims_part[1:-1].split(","))
    attrs = tuple(attrs_part.split(","))
    coords, values = [], []
    for line in lines[1:]:
        pos, _, vals = line.partition(" ")
        coords.append([int(c) for c in pos[1:-1].split(",")])
        values.append([float(v) for v in vals.split(",")])
    return (
        dims, attrs,
        np.array(coords, dtype=np.int64).reshape(len(coords), len(dims)),
        np.array(values, dtype=float).reshape(len(values), len(attrs)),
    )


def _row_major(coords: np.ndarray, values: np.ndarray):
    order = np.lexsort(coords.T[::-1]) if len(coords) else np.arange(0)
    return coords[order], values[order]


def mismatch(body: str, expected: Answer) -> Optional[str]:
    """``None`` when *body* is the expected answer, else why it is not."""
    try:
        dims, attrs, coords, values = parse_csvplus(body)
    except ValueError as exc:
        return f"unparseable answer: {exc}"
    want_dims, want_attrs, want_coords, want_values = expected
    if dims != want_dims or attrs != want_attrs:
        return f"schema {dims} {attrs} != expected {want_dims} {want_attrs}"
    coords, values = _row_major(coords, values)
    if len(coords) > 1 and (np.diff(coords, axis=0) == 0).all(axis=1).any():
        return "a cell appears twice"
    if coords.shape != want_coords.shape or not np.array_equal(coords, want_coords):
        return f"cell set differs: {len(coords)} cells, expected {len(want_coords)}"
    close = np.isclose(values, want_values, rtol=REL_TOL, atol=0.0)
    if not close.all():
        row = int(np.argwhere(~close)[0][0])
        return (f"cell {tuple(int(c) for c in coords[row])}: "
                f"{values[row].tolist()} != expected {want_values[row].tolist()}")
    return None
