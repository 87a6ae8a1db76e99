"""Validation tests for parse-tree node construction (Section 2.4)."""

import numpy as np
import pytest

from repro import PlanError
from repro.query import (
    AttrPredicate,
    DimPredicate,
    Literal,
    OpNode,
    PredicateConjunction,
    ArrayRef,
)


class TestDimPredicate:
    def test_valid_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            DimPredicate("x", op, 3)

    def test_unknown_op(self):
        with pytest.raises(PlanError):
            DimPredicate("x", "~", 3)

    def test_comparison_needs_value(self):
        with pytest.raises(PlanError):
            DimPredicate("x", ">=")

    def test_even_odd_need_no_value(self):
        even = DimPredicate("x", "even")
        cond = even.to_condition()
        assert cond(2) and not cond(3)
        odd = DimPredicate("x", "odd").to_condition()
        assert odd(3) and not odd(2)

    def test_to_condition_ranges(self):
        assert DimPredicate("x", "=", 5).to_condition() == 5
        assert DimPredicate("x", "<=", 5).to_condition() == (None, 5)
        assert DimPredicate("x", ">", 5).to_condition() == (6, None)
        ne = DimPredicate("x", "!=", 5).to_condition()
        assert ne(4) and not ne(5)


class TestAttrPredicate:
    def test_to_callable(self):
        # A single term's compiled mask over a chunk's PRESENT values.
        mask = PredicateConjunction((AttrPredicate("v", ">", 3),)).compiled.mask
        assert mask({"v": np.array([4, 3])}).tolist() == [True, False]

    def test_unknown_op(self):
        with pytest.raises(PlanError):
            AttrPredicate("v", "like", "x")


class TestConjunction:
    def test_terms_must_be_predicates(self):
        with pytest.raises(PlanError):
            PredicateConjunction((Literal(1),))

    def test_split_by_kind(self):
        conj = PredicateConjunction(
            (DimPredicate("x", ">=", 1), AttrPredicate("v", "<", 5))
        )
        assert len(conj.dim_terms) == 1
        assert len(conj.attr_terms) == 1

    def test_repeated_dimension_intersects(self):
        conj = PredicateConjunction(
            (DimPredicate("x", ">=", 3), DimPredicate("x", "<=", 5))
        )
        cond = conj.compiled.dims_condition["x"]
        assert callable(cond)
        assert cond(3) and cond(5)
        assert not cond(2) and not cond(6)

    def test_intersect_equality_and_range(self):
        conj = PredicateConjunction(
            (DimPredicate("x", "=", 4), DimPredicate("x", "<=", 10))
        )
        cond = conj.compiled.dims_condition["x"]
        assert cond(4)
        assert not cond(5)

    def test_attrs_callable_conjunction(self):
        # Every attribute term of the conjunction lands in one mask.
        conj = PredicateConjunction(
            (AttrPredicate("v", ">", 1), AttrPredicate("v", "<", 5))
        )
        mask = conj.compiled.mask
        assert mask({"v": np.array([3, 7])}).tolist() == [True, False]


class TestOpNode:
    def test_option_lookup(self):
        node = OpNode("filter", (ArrayRef("A"),), (("predicate", 42),))
        assert node.option("predicate") == 42
        assert node.option("missing", "dflt") == "dflt"

    def test_with_args_replaces(self):
        node = OpNode("filter", (ArrayRef("A"),), ())
        replaced = node.with_args(ArrayRef("B"))
        assert replaced.args == (ArrayRef("B"),)
        assert replaced.op == "filter"

    def test_structural_equality(self):
        a = OpNode("subsample", (ArrayRef("A"),), (("predicate", 1),))
        b = OpNode("subsample", (ArrayRef("A"),), (("predicate", 1),))
        assert a == b
