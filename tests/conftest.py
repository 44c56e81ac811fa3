"""Shared quiver/algebra constructions used across the test suite."""

import pytest

from silting_forge.algebra import (
    Arrow,
    Bimodule,
    QuiverPresentation,
    build_triangular,
    compile_quiver_algebra,
)
from silting_forge.exactlinalg import FieldSpec, Matrix

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
QQ = FieldSpec("rational")


def permuted_actions(m):
    """The action matrices of ``m`` with its basis cycled one place,
    e_i -> e_(i+1 mod dim): a fixed basis change, not the identity once
    dim > 1.  Modules are interned by content, so a module built from these
    is new, with nothing memoized on it, unless the cycle fixes every action
    matrix or such a module is alive already."""
    shift = [(i + 1) % m.dim for i in range(m.dim)]
    return {lbl: Matrix(a.field, [[a.data[r][c] for c in shift] for r in shift]) for lbl, a in m.action.items()}


def quiver_a2(field=F2, bound=8):
    """1 --a--> 2, no relations: basis {e1, e2, a}."""
    return QuiverPresentation(["1", "2"], [Arrow("a", "1", "2")], [], field, bound)


def quiver_dual_numbers(field=F2, bound=4):
    """One vertex, loop x, relation x*x: dual numbers, basis {ev, x}."""
    return QuiverPresentation(["v"], [Arrow("x", "v", "v")], [[("1", ["x", "x"])]], field, bound)


def quiver_a3_rel(field=F2, bound=8):
    """1 --a--> 2 --b--> 3 with the composite killed: basis {e1,e2,e3,a,b}."""
    return QuiverPresentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3")],
        [[("1", ["a", "b"])]],
        field,
        bound,
    )


def quiver_kxk(field=F2):
    """Two vertices, no arrows: k x k."""
    return QuiverPresentation(["1", "2"], [], [], field, 2)


def quiver_point(field=F2):
    """Single vertex, no arrows: the ground field."""
    return QuiverPresentation(["1"], [], [], field, 2)


@pytest.fixture
def a2():
    return compile_quiver_algebra(quiver_a2())


@pytest.fixture
def dual():
    return compile_quiver_algebra(quiver_dual_numbers())


@pytest.fixture
def a3rel():
    return compile_quiver_algebra(quiver_a3_rel())


@pytest.fixture
def kxk():
    return compile_quiver_algebra(quiver_kxk())


@pytest.fixture
def point():
    return compile_quiver_algebra(quiver_point())


def triangular_gamma0(field=F2):
    """Lower-triangular glue of a one-vertex top algebra over the dual
    numbers along the regular bimodule: dimension 5, layer labels
    a.eu / n.0 / n.1 / b.ev / b.x."""
    top = compile_quiver_algebra(QuiverPresentation(["u"], [], [], field, 8))
    bottom = compile_quiver_algebra(
        QuiverPresentation(["v"], [Arrow("x", "v", "v")], [[("1", ["x", "x"])]], field, 8)
    )
    left = {top.labels[0]: Matrix.identity(field, 2)}
    right = {
        lbl: bottom.right_mult_matrix(bottom.basis_vector(i))
        for i, lbl in enumerate(bottom.labels)
    }
    return build_triangular(top, bottom, Bimodule(top, bottom, 2, left, right))


@pytest.fixture(scope="session")
def gamma0():
    return triangular_gamma0()
