"""Parse-tree node types — the common command representation (Section 2.4).

Every binding (the textual parser, the Python fluent binding, and any
future MATLAB/IDL-style frontend) produces these nodes; the planner and
executor consume nothing else.  Nodes are immutable values with structural
equality, so the planner's rewrites are easy to test.  Predicate semantics
live here too: a conjunction compiles once into every form its consumers
take (:class:`CompiledPredicate`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from ..core.errors import PlanError, UnknownComponentError

__all__ = [
    "Node",
    "Literal",
    "ArrayRef",
    "DimPredicate",
    "AttrPredicate",
    "PredicateConjunction",
    "CompiledPredicate",
    "Interval",
    "OpNode",
    "DefineNode",
    "CreateNode",
    "SelectNode",
    "EnhanceNode",
]

#: Comparison operators admitted in predicates.
COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class Node:
    """Base class for all parse-tree nodes."""

    def children(self) -> tuple["Node", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Node):
    """A constant value."""

    value: Any


@dataclass(frozen=True)
class ArrayRef(Node):
    """A reference to a catalog array by name."""

    name: str


@dataclass(frozen=True)
class DimPredicate(Node):
    """A single-dimension condition (Subsample's building block).

    ``op`` is a comparison from :data:`COMPARISONS`, or the special
    ``"even"`` / ``"odd"`` unary forms of the paper's ``even(X)`` example
    (``value`` is ignored for those).
    """

    dim: str
    op: str
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS + ("even", "odd"):
            raise PlanError(f"unknown dimension comparison {self.op!r}")
        if self.op in COMPARISONS and self.value is None:
            raise PlanError(f"comparison {self.op!r} needs a value")

    def to_condition(self):
        """Compile to the operator layer's DimCondition form."""
        if self.op == "even":
            return lambda v: v % 2 == 0
        if self.op == "odd":
            return lambda v: v % 2 == 1
        value = self.value
        return {
            "=": value,
            "!=": (lambda v: v != value),
            "<": (None, value - 1),
            "<=": (None, value),
            ">": (value + 1, None),
            ">=": (value, None),
        }[self.op]


@dataclass(frozen=True)
class AttrPredicate(Node):
    """A condition over a cell's data values (Filter / Cjoin)."""

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise PlanError(f"unknown attribute comparison {self.op!r}")


@dataclass(frozen=True)
class PredicateConjunction(Node):
    """An AND of per-dimension and/or per-attribute conditions."""

    terms: tuple[Node, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if not isinstance(t, (DimPredicate, AttrPredicate)):
                raise PlanError(
                    "conjunction terms must be dimension or attribute "
                    f"predicates, got {type(t).__name__}"
                )

    @property
    def dim_terms(self) -> tuple[DimPredicate, ...]:
        return tuple(t for t in self.terms if isinstance(t, DimPredicate))

    @property
    def attr_terms(self) -> tuple[AttrPredicate, ...]:
        return tuple(t for t in self.terms if isinstance(t, AttrPredicate))

    @cached_property
    def compiled(self) -> "CompiledPredicate":
        """This conjunction compiled once for every consumer."""
        return CompiledPredicate(self)


@dataclass(frozen=True)
class Interval:
    """A (possibly half-open, possibly unbounded) numeric interval."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    lo_open: bool = False
    hi_open: bool = False

    def intersect(self, other: "Interval") -> "Interval":
        lo, lo_open = self.lo, self.lo_open
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_open = other.lo, other.lo_open
        elif other.lo is not None and other.lo == lo:
            lo_open = lo_open or other.lo_open
        hi, hi_open = self.hi, self.hi_open
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is not None and other.hi == hi:
            hi_open = hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    @property
    def empty(self) -> bool:
        """No value at all satisfies this interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def excludes_range(self, vmin: float, vmax: float) -> bool:
        """True when **no** value in ``[vmin, vmax]`` can satisfy this
        interval — the bucket-pruning test.  Conservative by design:
        any doubt (including NaN comparisons) answers False."""
        if self.empty:
            return True
        try:
            if self.lo is not None and (
                vmax < self.lo or (self.lo_open and vmax <= self.lo)
            ):
                return True
            if self.hi is not None and (
                vmin > self.hi or (self.hi_open and vmin >= self.hi)
            ):
                return True
        except TypeError:  # incomparable types: never prune
            return False
        return False

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        return ("(" if self.lo_open or self.lo is None else "[") + \
            f"{lo}, {hi}" + (")" if self.hi_open or self.hi is None else "]")


class CompiledPredicate:
    """A :class:`PredicateConjunction` compiled once into the forms its
    consumers take:

    * :meth:`mask` — the filter kernel's test over one chunk's PRESENT
      values (attribute terms only; NULL and EMPTY cells never reach it);
    * :attr:`attr_ranges` — the per-attribute :class:`Interval` the
      planner prunes buckets with.  Only numeric range terms contribute
      (not ``!=``), so it bounds a superset of the matches;
    * :meth:`window` — the closed per-dimension box a grid scan reads;
    * :attr:`dims_condition` — the mapping Subsample takes.
    """

    def __init__(self, pred: PredicateConjunction) -> None:
        self._attr_tests = [(t.attr, _COMPARE[t.op], t.value) for t in pred.attr_terms]
        self.attr_ranges: dict[str, Interval] = {}
        for t in pred.attr_terms:
            v = t.value
            if t.op == "!=" or isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            iv = Interval(
                v if t.op in ("=", ">", ">=") else None,
                v if t.op in ("=", "<", "<=") else None,
                t.op == ">", t.op == "<",
            )
            known = self.attr_ranges.get(t.attr)
            self.attr_ranges[t.attr] = iv if known is None else known.intersect(iv)
        self._dim_conds = [(t.dim, t.to_condition()) for t in pred.dim_terms]
        self.dims_condition: dict[str, Any] = {}
        for dim, cond in self._dim_conds:  # conditions on one dimension intersect
            if dim in self.dims_condition:
                both = (self.dims_condition[dim], cond)
                cond = lambda v, cs=both: all(_admits(c, v) for c in cs)
            self.dims_condition[dim] = cond

    def mask(self, planes: Mapping[str, np.ndarray]) -> np.ndarray:
        """Which cells pass, given each attribute's PRESENT values as
        equal-length 1-D planes."""
        keep = np.ones(len(next(iter(planes.values()))), dtype=bool)
        for attr, test, value in self._attr_tests:
            if attr not in planes:
                raise UnknownComponentError(f"cell has no component {attr!r}")
            # A 0-d array compares at the value's own precision (a bare
            # float would be cast to a float32 plane's), as per-cell does.
            keep &= test(planes[attr], np.asarray(value))
        return keep

    def window(self, dimensions: Sequence[Any]) -> Optional[tuple[tuple, tuple]]:
        """The closed ``(lo, hi)`` box of a pure-range dimension predicate
        over *dimensions*, or ``None`` when the predicate needs per-cell
        evaluation (even/odd/!=, attribute terms) or an unbounded
        dimension has no upper constraint."""
        if self._attr_tests:
            return None
        names = [d.name for d in dimensions]
        lo, hi = {}, {}
        for dim, cond in self._dim_conds:
            if dim not in names:
                raise PlanError(
                    f"array has no dimension {dim!r} "
                    f"(dimensions: {', '.join(names)})"
                )
            if callable(cond):
                return None
            low, high = (cond, cond) if isinstance(cond, int) else cond
            if low is not None:
                lo[dim] = max(lo.get(dim, low), low)
            if high is not None:
                hi[dim] = min(hi.get(dim, high), high)
        upper = tuple(hi.get(d.name, d.size) for d in dimensions)
        if None in upper:
            return None
        return tuple(lo.get(d.name, 1) for d in dimensions), upper


_COMPARE = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _admits(cond: Any, v: int) -> bool:
    """Whether dimension value *v* satisfies one DimCondition."""
    if callable(cond):
        return cond(v)
    lo, hi = (cond, cond) if isinstance(cond, int) else cond
    return (lo is None or v >= lo) and (hi is None or v <= hi)


@dataclass(frozen=True)
class OpNode(Node):
    """An operator application: the workhorse expression node.

    ``args`` are positional child expressions (arrays); ``options`` carries
    operator-specific parameters (predicates, group dims, factors, ...).
    """

    op: str
    args: tuple[Node, ...]
    options: tuple[tuple[str, Any], ...] = ()

    def children(self) -> tuple[Node, ...]:
        return self.args

    def option(self, key: str, default: Any = None) -> Any:
        for k, v in self.options:
            if k == key:
                return v
        return default

    def with_args(self, *args: Node) -> "OpNode":
        return OpNode(self.op, tuple(args), self.options)


@dataclass(frozen=True)
class DefineNode(Node):
    """``define [updatable] array Name (a = t, ...) (d1, d2)``."""

    name: str
    values: tuple[tuple[str, str], ...]
    dims: tuple[str, ...]
    updatable: bool = False


@dataclass(frozen=True)
class CreateNode(Node):
    """``create Instance as Type [b1, b2]`` (``*`` bounds are None)."""

    instance: str
    type_name: str
    bounds: tuple[Optional[int], ...]


@dataclass(frozen=True)
class SelectNode(Node):
    """``select <expr> [into Name]``."""

    expr: Node
    into: Optional[str] = None

    def children(self) -> tuple[Node, ...]:
        return (self.expr,)


@dataclass(frozen=True)
class EnhanceNode(Node):
    """``enhance Array with Function``."""

    array: str
    function: str
