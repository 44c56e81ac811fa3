"""Exact linear algebra kernels: hand-checked examples plus random invariants."""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from silting_forge import exactlinalg
from silting_forge.exactlinalg import (
    ExactError,
    FieldSpec,
    Matrix,
    combine,
    invert,
    nullspace,
    quotient_map,
    rank,
    reduce_mod_row_space,
    row_space_basis,
    rref,
    solve,
)

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)
F7 = FieldSpec("prime", 7)
QQ = FieldSpec("rational")


# --------------------------------------------------------------------------
# FieldSpec
# --------------------------------------------------------------------------


def test_field_validation():
    with pytest.raises(ExactError):
        FieldSpec("prime", 4)
    with pytest.raises(ExactError):
        FieldSpec("prime", 1)
    with pytest.raises(ExactError):
        FieldSpec("prime", None)
    with pytest.raises(ExactError):
        FieldSpec("rational", 7)
    with pytest.raises(ExactError):
        FieldSpec("real")
    assert FieldSpec("prime", 2).p == 2
    assert FieldSpec("prime", 2**31 - 1).p == 2**31 - 1  # Mersenne prime


def test_scalar_arithmetic_mod_5():
    # Oracle: 3 + 4 = 7 = 2 mod 5, 3 * 4 = 12 = 2 mod 5, 3^-1 = 2 since 6 = 1 mod 5.
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(3) == 2
    assert F5.neg(2) == 3
    assert F5.sub(1, 3) == 3


def test_scalar_strings():
    assert QQ.from_str("-7/2") == Fraction(-7, 2)
    assert QQ.to_str(Fraction(-7, 2)) == "-7/2"
    assert QQ.to_str(Fraction(3)) == "3"
    assert F5.from_str("7") == 2
    # 1/2 mod 5 is 3 because 2 * 3 = 6 = 1 mod 5.
    assert F5.from_str("1/2") == 3
    assert F5.to_str(3) == "3"
    with pytest.raises(ExactError):
        F5.from_str("1/5")


def test_division_by_zero():
    with pytest.raises(ExactError):
        QQ.inv(Fraction(0))
    with pytest.raises(ExactError):
        F5.inv(0)


# --------------------------------------------------------------------------
# Matrix basics
# --------------------------------------------------------------------------


def test_matrix_roundtrip_serialization():
    m = Matrix.from_lists(QQ, [["1", "-7/2"], ["0", "3"]])
    assert m.to_lists() == [["1", "-7/2"], ["0", "3"]]
    m2 = Matrix.from_lists(F5, [["7", "1/2"]])
    assert m2.to_lists() == [["2", "3"]]


def test_matrix_multiply_oracle():
    # Oracle by hand: [[1,2],[3,4]] @ [[0,1],[1,1]] = [[2,3],[4,7]].
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    assert a.mul(b).to_lists() == [["2", "3"], ["4", "7"]]
    # Same mod 5: [[2,3],[4,2]].
    a5 = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    b5 = Matrix.from_rows(F5, [[0, 1], [1, 1]])
    assert a5.mul(b5).to_lists() == [["2", "3"], ["4", "2"]]


def test_matrix_shape_errors():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[1, 2]])
    with pytest.raises(ExactError):
        a.mul(b)
    with pytest.raises(ExactError):
        a + Matrix.from_rows(QQ, [[1], [2]])
    with pytest.raises(ExactError):
        Matrix(QQ, [[1, 2], [3]])


def test_stacking_and_kron():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3, 4]])
    assert Matrix.hstack([a, b]).to_lists() == [["1", "2", "3", "4"]]
    assert Matrix.vstack([a, b]).to_lists() == [["1", "2"], ["3", "4"]]
    # Kronecker oracle: [[1,2]] (x) [[0,1],[1,0]] = [[0,1,0,2],[1,0,2,0]].
    c = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert a.kron(c).to_lists() == [["0", "1", "0", "2"], ["1", "0", "2", "0"]]


def test_block_diag():
    a = Matrix.from_rows(QQ, [[1]])
    b = Matrix.from_rows(QQ, [[2, 3]])
    assert Matrix.block_diag(QQ, [a, b]).to_lists() == [
        ["1", "0", "0"],
        ["0", "2", "3"],
    ]


def test_power():
    # Nilpotent oracle: strictly upper triangular 2x2 squares to zero.
    n = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert n.power(2).is_zero()
    assert n.power(0) == Matrix.identity(QQ, 2)


# --------------------------------------------------------------------------
# rref / rank / solve with hand-derived oracles
# --------------------------------------------------------------------------


def _assert_row_space_certificate(m, reduced, pivots):
    """``(reduced, pivots)`` is a reduced echelon form of ``m``: pivots
    strictly increase, each pivot column is a unit vector, the rows past the
    rank are zero, and stacking ``m`` under ``reduced`` adds no rank."""
    f = m.field
    assert (reduced.nrows, reduced.ncols) == (m.nrows, m.ncols)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, j in enumerate(pivots):
        assert [row[j] for row in reduced.data] == [f.one() if k == i else f.zero() for k in range(m.nrows)]
    assert not any(x for row in reduced.data[len(pivots):] for x in row)
    assert rank(Matrix.vstack([reduced, m])) == len(pivots)


def test_rref_all_ones_f2():
    # Oracle: both rows equal over F_2, so rank 1, reduced = [[1,1],[0,0]].
    m = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced.to_lists() == [["1", "1"], ["0", "0"]]
    _assert_row_space_certificate(m, reduced, pivots)


def test_rref_identity_rational():
    m = Matrix.identity(QQ, 3)
    reduced, pivots = rref(m)
    assert pivots == [0, 1, 2]
    assert reduced == m


def test_rref_proportional_rows():
    # Oracle: [[2,4],[1,2]] has proportional rows; rank 1, reduced [[1,2],[0,0]].
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    reduced, pivots = rref(m)
    assert pivots == [0]
    assert reduced.to_lists() == [["1", "2"], ["0", "0"]]
    _assert_row_space_certificate(m, reduced, pivots)


def test_solve_identity():
    a = Matrix.identity(QQ, 2)
    b = Matrix.column(QQ, [5, -1])
    assert solve(a, b) == b
    assert nullspace(a) == Matrix.zeros(QQ, 2, 0)


def test_solve_zero_matrix():
    a = Matrix.zeros(QQ, 2, 2)
    b = Matrix.zeros(QQ, 2, 1)
    assert solve(a, b) == Matrix.zeros(QQ, 2, 1)
    assert nullspace(a) == Matrix.identity(QQ, 2)
    # Inconsistent when b is nonzero.
    assert solve(a, Matrix.column(QQ, [1, 0])) is None


def test_solve_underdetermined_f2():
    # Oracle by enumeration of all vectors in F_2^2: x + y = 1 has solutions
    # (1,0) and (0,1); kernel of [1 1] is {(0,0), (1,1)} so nullity 1.
    a = Matrix.from_rows(F2, [[1, 1]])
    b = Matrix.column(F2, [1])
    x = solve(a, b)
    assert x == Matrix.column(F2, [1, 0])  # the free variable y is zero
    assert a.mul(x) == b
    assert nullspace(a) == Matrix.column(F2, [1, 1])


def test_invert():
    m = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    inv = invert(m)
    assert inv.mul(m) == Matrix.identity(QQ, 2)
    assert invert(Matrix.from_rows(QQ, [[1, 1], [1, 1]])) is None


# --------------------------------------------------------------------------
# Subspace helpers
# --------------------------------------------------------------------------


def test_row_space_membership():
    basis = row_space_basis([[1, 1, 0], [0, 1, 1]], QQ, 3)
    assert basis.nrows == 2
    assert not any(reduce_mod_row_space([1, 0, -1], basis))  # difference of the generators
    assert any(reduce_mod_row_space([0, 0, 1], basis))
    assert not any(reduce_mod_row_space([0, 0, 0], basis))


def test_reduce_mod_row_space_is_canonical():
    basis = row_space_basis([[1, 0, 2]], QQ, 3)
    r1 = reduce_mod_row_space([1, 1, 2], basis)
    r2 = reduce_mod_row_space([0, 1, 0], basis)
    assert r1 == r2  # same coset, same representative


def test_quotient_map_kernel_is_exactly_the_span():
    basis = row_space_basis([[1, 2, 0], [0, 0, 1]], QQ, 3)
    proj, keep = quotient_map(basis, 3)
    assert keep == [1]
    assert proj.nrows == 1
    # Kills the subspace:
    for row in basis.data:
        assert proj.mul(Matrix.column(QQ, row)).is_zero()
    # Does not kill a complement vector:
    assert not proj.mul(Matrix.column(QQ, [0, 1, 0])).is_zero()


# --------------------------------------------------------------------------
# Random invariants (hypothesis)
# --------------------------------------------------------------------------

fields = st.sampled_from([F2, F5, QQ])


@st.composite
def random_matrix(draw, field=None):
    f = draw(fields) if field is None else field
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    if f.kind == "prime":
        entries = st.integers(0, f.p - 1)
    else:
        entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    data = [[f.coerce(draw(entries)) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(f, data, nrows, ncols)


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rref_idempotent_and_certified(m):
    reduced, pivots = rref(m)
    _assert_row_space_certificate(m, reduced, pivots)
    assert rref(reduced) == (reduced, pivots)


@settings(max_examples=200, deadline=None)
@given(random_matrix())
def test_rank_nullity(m):
    null = nullspace(m)
    assert null.nrows == m.ncols
    assert rank(m) + null.ncols == m.ncols


@settings(max_examples=150, deadline=None)
@given(random_matrix(), st.randoms(use_true_random=False))
def test_solve_consistency(m, rng):
    f = m.field
    # b in the column space: solve must succeed and certify.
    coeffs = Matrix.column(f, [f.random(rng) for _ in range(m.ncols)])
    b = m.mul(coeffs)
    x = solve(m, b)
    assert x is not None
    assert m.mul(x) == b
    null = nullspace(m)
    assert m.mul(null).is_zero()
    assert rank(m) + rank(null) == m.ncols


@settings(max_examples=100, deadline=None)
@given(random_matrix(field=F5))
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@settings(max_examples=60, deadline=None)
@given(random_matrix(field=QQ), random_matrix(field=QQ))
def test_kron_rank_multiplicative(a, b):
    assert rank(a.kron(b)) == rank(a) * rank(b)


# --------------------------------------------------------------------------
# The packed F_2 kernels against the generic path run at p = 2.  Shapes reach
# 70 so packed rows cross 64-bit word boundaries; empty shapes are included.
# --------------------------------------------------------------------------

dims = st.integers(0, 70)
# Entries come from a seeded generator: drawing 70 x 70 of them one by one
# would exceed hypothesis's per-example data limit.
seeds = st.integers(0, 2**32 - 1)


@st.composite
def f2_matrix(draw, nrows=None, ncols=None):
    nrows = draw(dims) if nrows is None else nrows
    ncols = draw(dims) if ncols is None else ncols
    # Sparse, dense and all-zero rows all occur in the kernels' callers.
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(seeds))
    data = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(F2, data, nrows, ncols)


@st.composite
def f2_product_pair(draw):
    a = draw(f2_matrix())
    return a, draw(f2_matrix(nrows=a.ncols))


def _with_generic_rref(fn, *args):
    """Run ``fn`` with every rref inside exactlinalg taking the generic path."""
    with mock.patch.object(exactlinalg, "rref", exactlinalg._generic_rref):
        return fn(*args)


@settings(max_examples=60, deadline=None)
@given(f2_product_pair())
def test_f2_mul_matches_generic(pair):
    a, b = pair
    fast = a.mul(b)
    assert fast == exactlinalg._generic_mul(a, b)
    assert all(type(x) is int for row in fast.data for x in row)


@settings(max_examples=40, deadline=None)
@given(f2_matrix())
def test_f2_rref_matches_generic(m):
    reduced, pivots = rref(m)
    ref_reduced, ref_pivots = exactlinalg._generic_rref(m)
    assert (reduced, pivots) == (ref_reduced, ref_pivots)
    assert reduced.to_lists() == ref_reduced.to_lists()


@settings(max_examples=30, deadline=None)
@given(f2_matrix(), st.integers(0, 3), seeds)
def test_f2_solve_and_invert_match_generic(a, nrhs, seed):
    rng = random.Random(seed)
    b = Matrix(F2, [[rng.randrange(2) for _ in range(nrhs)] for _ in range(a.nrows)], a.nrows, nrhs)
    assert solve(a, b) == _with_generic_rref(solve, a, b)
    n = min(a.nrows, a.ncols)
    square = a.submatrix(range(n), range(n))
    # Identity plus a strictly upper part: invertible, so the inverses are compared.
    upper = [[x if j > i else 0 for j, x in enumerate(r)] for i, r in enumerate(square.data)]
    unit = Matrix.identity(F2, n) + Matrix(F2, upper, n, n)
    for sq in (square, unit):
        assert invert(sq) == _with_generic_rref(invert, sq)
    assert invert(unit) is not None


@settings(max_examples=60, deadline=None)
@given(f2_matrix(), seeds, st.integers(-3, 3))
def test_f2_add_sub_scale_match_generic(a, seed, c):
    rng = random.Random(seed)
    b = Matrix(F2, [[rng.randrange(2) for _ in range(a.ncols)] for _ in range(a.nrows)], a.nrows, a.ncols)
    f = F2
    assert (a + b).data == [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(a.data, b.data)]
    assert (a - b).data == [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a.data, b.data)]
    scaled = a.scale(c)
    assert scaled.data == [[f.mul(f.coerce(c), x) for x in r] for r in a.data]
    assert (scaled.nrows, scaled.ncols) == (a.nrows, a.ncols)


@st.composite
def odd_product_pair(draw):
    """A product over F_3, F_7 or Q with shapes up to 30 (empty ones included)
    and each entry nonzero with a drawn density.  When it has the room, row 0
    of the left factor picks two equal rows of the right one with opposite
    coefficients, so its product cancels to zero."""
    f = draw(st.sampled_from([F3, F7, QQ]))
    nrows, inner, ncols = draw(st.integers(0, 30)), draw(st.integers(0, 30)), draw(st.integers(0, 30))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(seeds))

    def nonzero():
        if f.kind == "prime":
            return rng.randrange(1, f.p)
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 10), rng.randrange(1, 7))

    def entries(n):
        return [nonzero() if rng.random() < density else f.zero() for _ in range(n)]

    a = [entries(inner) for _ in range(nrows)]
    b = [entries(ncols) for _ in range(inner)]
    if nrows and inner >= 2:
        j, k = rng.sample(range(inner), 2)
        b[k] = b[j][:]
        a[0] = [f.zero()] * inner
        a[0][j] = nonzero()
        a[0][k] = f.neg(a[0][j])
    return Matrix(f, a, nrows, inner), Matrix(f, b, inner, ncols)


@settings(max_examples=60, deadline=None)
@given(odd_product_pair())
def test_odd_and_rational_fields_keep_generic_kernels(pair):
    a, b = pair
    f = a.field
    product = a.mul(b)
    assert product == exactlinalg._generic_mul(a, b)
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    if f.kind == "prime":
        assert all(type(x) is int and 0 <= x < f.p for row in product.data for x in row)
    else:
        assert all(type(x) is Fraction for row in product.data for x in row)
    if a.nrows and a.ncols >= 2:
        assert not any(product.data[0])
    assert rref(a) == exactlinalg._generic_rref(a)
    assert (a + a).data == [[f.add(x, x) for x in r] for r in a.data]
    assert (a - a).data == [[f.sub(x, x) for x in r] for r in a.data]
    assert a.scale(2).data == [[f.mul(f.coerce(2), x) for x in r] for r in a.data]


# --------------------------------------------------------------------------
# The kernels against their first versions.  rref used to return a
# row-operation matrix beside the reduced form, solve a null basis beside its
# solution, and nullspace a list of n×1 columns; invert read the row
# operations.  Every shared output must be unchanged.
# --------------------------------------------------------------------------


def _reference_rref(m):
    """``(reduced, rank, rowops)`` with ``rowops·m == reduced``, by scalar row
    operations applied to m and to the identity alike."""
    f = m.field
    a = [row[:] for row in m.data]
    ops = Matrix.identity(f, m.nrows).data
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, m.nrows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        ops[r], ops[pivot_row] = ops[pivot_row], ops[r]
        inv = f.inv(a[r][c])
        a[r] = [f.mul(inv, x) for x in a[r]]
        ops[r] = [f.mul(inv, x) for x in ops[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
                ops[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(ops[i], ops[r])]
        r += 1
        if r == m.nrows:
            break
    return Matrix(f, a, m.nrows, m.ncols), r, Matrix(f, ops, m.nrows, m.nrows)


def _reference_pivots(reduced):
    """The pivot of each nonzero row, found by rescanning the row."""
    return [next(j for j, x in enumerate(row) if x != 0) for row in reduced.data if any(row)]


def _reference_solve(a, b):
    """``(particular, nullbasis)``: the solution with free variables zero (or
    None) and the kernel basis as a list of n×1 columns."""
    f = a.field
    reduced = _reference_rref(Matrix.hstack([a, b]))[0]
    pivots = list(enumerate(_reference_pivots(reduced)))
    if any(j >= a.ncols for _, j in pivots):
        particular = None
    else:
        particular = Matrix.zeros(f, a.ncols, b.ncols)
        for i, j in pivots:
            for k in range(b.ncols):
                particular.data[j][k] = reduced.data[i][a.ncols + k]
    row_of_pivot = {j: i for i, j in pivots if j < a.ncols}
    nullbasis = []
    for free in range(a.ncols):
        if free in row_of_pivot:
            continue
        vec = Matrix.zeros(f, a.ncols, 1)
        vec.data[free][0] = f.one()
        for j, i in row_of_pivot.items():
            vec.data[j][0] = f.neg(reduced.data[i][free])
        nullbasis.append(vec)
    return particular, nullbasis


def _reference_nullspace(a):
    return _reference_solve(a, Matrix.zeros(a.field, a.nrows, 1))[1]


def _reference_invert(m):
    _, r, ops = _reference_rref(m)
    return ops if r == m.nrows else None


def _reference_cases(f, seed):
    """Empty shapes, tall sparse systems (the shape of the Hom commutator
    system), wide systems and singular square matrices over ``f``."""
    rng = random.Random(seed)

    def entry():
        if f.kind == "prime":
            return rng.randrange(1, f.p)
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1, 5), rng.randrange(1, 4))

    def sample(nrows, ncols, density):
        data = [[entry() if rng.random() < density else f.zero() for _ in range(ncols)] for _ in range(nrows)]
        return Matrix(f, data, nrows, ncols)

    cases = [sample(0, 5, 1.0), sample(5, 0, 1.0), sample(0, 0, 1.0)]
    cases += [sample(rng.randrange(30, 50), rng.randrange(4, 9), 0.25) for _ in range(3)]
    cases += [sample(rng.randrange(2, 5), rng.randrange(8, 14), 0.6) for _ in range(3)]
    for n in (4, 7):
        square = sample(n, n, 0.7)
        # row n-1 = row 0 + row 1 makes it singular
        square.data[n - 1] = [f.add(x, y) for x, y in zip(square.data[0], square.data[1])]
        cases += [square, sample(n, n, 0.7)]
    return rng, cases


@pytest.mark.parametrize("field", [F2, F3, F5, QQ], ids=["F2", "F3", "F5", "Q"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernels_match_their_reference_versions(field, seed):
    rng, cases = _reference_cases(field, seed)
    seen = set()
    for m in cases:
        reduced, pivots = rref(m)
        ref_reduced, ref_rank, _ = _reference_rref(m)
        assert reduced == ref_reduced
        assert pivots == _reference_pivots(ref_reduced) and len(pivots) == ref_rank
        _assert_row_space_certificate(m, reduced, pivots)

        null = nullspace(m)
        ref_null = _reference_nullspace(m)
        assert null == (Matrix.hstack(ref_null) if ref_null else Matrix.zeros(field, m.ncols, 0))

        x = Matrix(field, [[field.random(rng) for _ in range(2)] for _ in range(m.ncols)], m.ncols, 2)
        noise = Matrix(field, [[field.random(rng)] for _ in range(m.nrows)], m.nrows, 1)
        for b in (m.mul(x), noise):
            sol = solve(m, b)
            assert sol == _reference_solve(m, b)[0]
            seen.add(sol is None)

        if m.nrows == m.ncols:
            inv = invert(m)
            assert inv == _reference_invert(m)
            seen.add(("invertible", inv is not None))
    assert {True, False, ("invertible", True), ("invertible", False)} <= seen


# --------------------------------------------------------------------------
# The F_p kernels on both sides of the byte bound.  The packed product runs
# when k·(p-1)² <= 255 for the inner dimension k: k <= 63 over F_3, k <= 15
# over F_5, k <= 7 over F_7; F_17 and p = 2^31 - 1 always fall back to
# _sparse_mul past k = 0.  All-(p-1) factors put every unreduced entry of the
# product at k·(p-1)², the most a byte must hold.
# --------------------------------------------------------------------------

F17 = FieldSpec("prime", 17)
MERSENNE = FieldSpec("prime", 2**31 - 1)


def _fp_matrix(f, nrows, ncols, rng, density):
    data = [[rng.randrange(1, f.p) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(f, data, nrows, ncols)


def _top_matrix(f, nrows, ncols):
    return Matrix(f, [[f.p - 1] * ncols for _ in range(nrows)], nrows, ncols)


@pytest.mark.parametrize(
    "field, inner",
    [(F3, 63), (F3, 64), (F5, 15), (F5, 16), (F7, 7), (F7, 8), (F17, 1), (F17, 9), (MERSENNE, 5)],
    ids=lambda x: f"F{x.p}" if isinstance(x, FieldSpec) else f"k{x}",
)
def test_fp_product_matches_generic_across_the_byte_bound(field, inner):
    packed = inner * (field.p - 1) ** 2 <= 255
    rng = random.Random(inner)
    pairs = [(_top_matrix(field, 4, inner), _top_matrix(field, inner, 9))]
    pairs += [(_fp_matrix(field, 5, inner, rng, d), _fp_matrix(field, inner, 7, rng, d)) for d in (0.0, 0.3, 1.0)]
    pairs += [(_top_matrix(field, 0, inner), _top_matrix(field, inner, 3))]
    pairs += [(_top_matrix(field, 3, inner), _top_matrix(field, inner, 0))]
    for a, b in pairs:
        with mock.patch.object(exactlinalg, "_sparse_mul", wraps=exactlinalg._sparse_mul) as sparse:
            product = a.mul(b)
        assert sparse.called is not packed
        assert product == exactlinalg._generic_mul(a, b)
        assert all(type(x) is int and 0 <= x < field.p for row in product.data for x in row)


@pytest.mark.parametrize("field", [F3, F5, F7, F17, MERSENNE], ids=lambda f: f"F{f.p}")
def test_fp_small_shapes_match_generic(field):
    top = field.p - 1
    # (m × 0)·(0 × n) is the zero matrix; 1×1 products and eliminations.
    for a, b in [
        (Matrix(field, [[], []], 2, 0), Matrix(field, [], 0, 3)),
        (Matrix(field, [], 0, 4), _top_matrix(field, 4, 2)),
        (Matrix(field, [[top]], 1, 1), Matrix(field, [[top]], 1, 1)),
        (Matrix(field, [[0]], 1, 1), Matrix(field, [[top]], 1, 1)),
    ]:
        assert a.mul(b) == exactlinalg._generic_mul(a, b)
    for m in [Matrix(field, [], 0, 5), Matrix(field, [[]] * 5, 5, 0), Matrix(field, [[top]], 1, 1),
              Matrix(field, [[0]], 1, 1), _top_matrix(field, 6, 6)]:
        assert exactlinalg._rref_fp(m) == exactlinalg._generic_rref(m) == rref(m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13], ids=lambda p: f"F{p}")
def test_packed_product_reduces_through_the_residue_table(p):
    # The packed sum holds each unreduced entry in a byte; the field's table
    # reduces it.  Inner dimensions run up to the byte bound (all-(p-1)
    # factors reach k·(p-1)², the largest byte) and one past it.
    field = FieldSpec("prime", p)
    bound = 255 // (p - 1) ** 2
    rng = random.Random(p)
    for inner in sorted({1, bound // 2 or 1, bound, bound + 1}):
        pairs = [(_top_matrix(field, 3, inner), _top_matrix(field, inner, 5))]
        pairs += [(_fp_matrix(field, 6, inner, rng, d), _fp_matrix(field, inner, 7, rng, d)) for d in (0.3, 0.7, 1.0)]
        for a, b in pairs:
            with mock.patch.object(exactlinalg, "_sparse_mul", wraps=exactlinalg._sparse_mul) as sparse:
                product = a.mul(b)
            assert sparse.called is (inner > bound)
            assert product == exactlinalg._generic_mul(a, b)
            assert all(type(x) is int for row in product.data for x in row)


@pytest.mark.parametrize("field", [F17, MERSENNE], ids=lambda f: f"F{f.p}")
def test_packed_product_of_inner_dimension_zero(field):
    # Past p = 13 no nonempty inner dimension packs, but k = 0 does, for every p.
    for nrows, ncols in [(2, 3), (0, 3), (2, 0)]:
        a, b = Matrix(field, [[]] * nrows, nrows, 0), Matrix(field, [], 0, ncols)
        with mock.patch.object(exactlinalg, "_sparse_mul", wraps=exactlinalg._sparse_mul) as sparse:
            product = a.mul(b)
        assert not sparse.called
        assert product == exactlinalg._generic_mul(a, b) == Matrix.zeros(field, nrows, ncols)


@pytest.mark.parametrize("field", [F3, F5, F7, F17, MERSENNE], ids=lambda f: f"F{f.p}")
@pytest.mark.parametrize("seed", [0, 1])
def test_fp_rref_matches_generic(field, seed):
    rng = random.Random(seed)
    cases = [_top_matrix(field, 5, 8)]
    for _ in range(12):
        nrows, ncols = rng.randrange(1, 20), rng.randrange(1, 20)
        cases.append(_fp_matrix(field, nrows, ncols, rng, rng.choice([0.2, 0.5, 1.0])))
    # A rank-deficient case: the last row is the sum of the first two.
    m = _fp_matrix(field, 6, 9, rng, 0.8)
    m.data[5] = [(x + y) % field.p for x, y in zip(m.data[0], m.data[1])]
    cases.append(m)
    for m in cases:
        reduced, pivots = exactlinalg._rref_fp(m)
        assert (reduced, pivots) == exactlinalg._generic_rref(m) == rref(m)
        assert pivots == _reference_pivots(reduced)


# --------------------------------------------------------------------------
# Kernel outputs own their rows: Matrix._wrap takes the rows it is handed, so
# no kernel may hand it a row list of one of its inputs.
# --------------------------------------------------------------------------


def _kernel_outputs(f):
    """``(name, output, inputs)`` for every kernel that wraps fresh rows."""
    a = Matrix.from_rows(f, [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    b = Matrix.from_rows(f, [[1, 1], [0, 1], [1, 0], [1, 1]])
    reduced = Matrix.from_rows(f, [[1, 0, 1], [0, 1, 1]])
    return [
        ("mul", a.mul(b), (a, b)),
        ("_sparse_mul", exactlinalg._sparse_mul(a, b), (a, b)),
        ("rref", rref(a)[0], (a,)),
        ("rref of a reduced matrix", rref(reduced)[0], (reduced,)),
        ("copy", a.copy(), (a,)),
        ("add", a + a, (a,)),
        ("sub", a - a, (a,)),
        ("neg", -a, (a,)),
        ("scale", a.scale(1), (a,)),
        ("hstack of one", Matrix.hstack([a]), (a,)),
        ("vstack of one", Matrix.vstack([a]), (a,)),
        ("transpose", a.transpose(), (a,)),
        ("submatrix", a.submatrix(range(3), range(4)), (a,)),
        ("nullspace", nullspace(reduced), (reduced,)),
        ("row_space_basis", row_space_basis(reduced.data, f, 3), (reduced,)),
    ]


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_kernel_outputs_share_no_row_with_their_inputs(field):
    for name, out, inputs in _kernel_outputs(field):
        before = [m.copy() for m in inputs]
        input_rows = {id(row) for m in inputs for row in m.data}
        assert not any(id(row) in input_rows for row in out.data), name
        for row in out.data:
            row[:] = ["mutated"] * len(row)
        assert list(inputs) == before, name


def test_public_constructor_copies_and_checks_shape():
    with pytest.raises(ExactError):
        Matrix(F3, [[1, 2], [0]])
    with pytest.raises(ExactError):
        Matrix(F3, [[1, 2]], 2, 2)
    with pytest.raises(ExactError):
        Matrix(F3, [[1, 2]], 1, 3)
    rows = [[1, 2], [0, 1]]
    m = Matrix(F3, rows)
    rows[0][0] = 2
    assert m.data == [[1, 2], [0, 1]] and m.data[0] is not rows[0]


# --------------------------------------------------------------------------
# The Q kernels on integers against their Fraction references: products
# against _generic_mul, eliminations (and solve, invert, nullspace and
# row_space_basis through them) against _generic_rref, combine against a
# plain Fraction sum.  Every output entry must be a Fraction in lowest terms
# and every zero the one zero that FieldSpec("rational") hands out.
# --------------------------------------------------------------------------


def _q_entry(rng, density):
    """Zero (the shared one or a separately made one) with probability
    1 - density, else an integer, a non-integral, a negative or a
    large-denominator rational."""
    if rng.random() >= density:
        return rng.choice([QQ.zero(), Fraction(0), Fraction(0, 7)])
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randrange(-9, 10))
    if kind == 1:
        return Fraction(rng.randrange(-9, 10), rng.randrange(2, 10))
    if kind == 2:
        return -Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
    return Fraction(rng.randrange(-10**15, 10**15), rng.randrange(1, 10**15))


@st.composite
def q_matrix(draw, nrows=None, ncols=None):
    """A matrix over Q with up to 8 rows and columns, empty and zero-width
    shapes included.  When it has the rows, the last row may be a multiple of
    the sum of the first two (rank-deficient) or row 1 the negative of row 0
    (cancelling)."""
    nrows = draw(st.integers(0, 8)) if nrows is None else nrows
    ncols = draw(st.integers(0, 8)) if ncols is None else ncols
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(seeds))
    data = [[_q_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    shape = draw(st.sampled_from(["plain", "rank-deficient", "cancelling"]))
    if shape == "rank-deficient" and nrows >= 3:
        c = _q_entry(rng, 1.0) or Fraction(1)
        data[-1] = [c * (x + y) for x, y in zip(data[0], data[1])]
    elif shape == "cancelling" and nrows >= 2:
        data[1] = [-x for x in data[0]]
    return Matrix(QQ, data, nrows, ncols)


def _assert_canonical_q(m):
    zero = QQ.zero()
    for row in m.data:
        for x in row:
            assert type(x) is Fraction
            assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
            assert x or x is zero


def test_rational_zero_and_one_are_shared():
    assert FieldSpec("rational").zero() is QQ.zero() == 0
    assert FieldSpec("rational").one() is QQ.one() == 1
    assert all(x is QQ.zero() for row in Matrix.zeros(QQ, 3, 2).data for x in row)
    assert Matrix.identity(QQ, 2).data == [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]]


@settings(max_examples=80, deadline=None)
@given(q_matrix(), st.data())
def test_q_mul_matches_generic(a, data):
    b = data.draw(q_matrix(nrows=a.ncols))
    cancel = a.nrows and a.ncols >= 2 and data.draw(st.booleans())
    if cancel:
        # Row 0 of a picks two equal rows of b with opposite coefficients.
        b.data[1] = b.data[0][:]
        c = _q_entry(random.Random(data.draw(seeds)), 1.0) or Fraction(3, 7)
        a.data[0] = [c, -c] + [QQ.zero()] * (a.ncols - 2)
    product = a.mul(b)
    assert product == exactlinalg._generic_mul(a, b)
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    _assert_canonical_q(product)
    if cancel:
        assert all(x is QQ.zero() for x in product.data[0])


@settings(max_examples=80, deadline=None)
@given(q_matrix())
def test_q_rref_matches_generic(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == exactlinalg._generic_rref(m)
    _assert_canonical_q(reduced)
    _assert_row_space_certificate(m, reduced, pivots)


@settings(max_examples=60, deadline=None)
@given(q_matrix(), st.data())
def test_q_solve_invert_nullspace_match_generic(a, data):
    consistent = a.mul(data.draw(q_matrix(nrows=a.ncols)))
    for b in (data.draw(q_matrix(nrows=a.nrows)), consistent):
        x = solve(a, b)
        assert x == _with_generic_rref(solve, a, b)
        if x is not None:
            _assert_canonical_q(x)
            assert a.mul(x) == b
    assert solve(a, consistent) is not None
    null = nullspace(a)
    assert null == _with_generic_rref(nullspace, a)
    _assert_canonical_q(null)
    assert null.ncols == a.ncols - rank(a) and a.mul(null).is_zero()
    n = min(a.nrows, a.ncols)
    square = a.submatrix(range(n), range(n))
    inv = invert(square)
    assert inv == _with_generic_rref(invert, square)
    if inv is not None:
        _assert_canonical_q(inv)
        assert square.mul(inv) == Matrix.identity(QQ, n)
    basis = row_space_basis(a.data, QQ, a.ncols)
    assert basis == _with_generic_rref(row_space_basis, a.data, QQ, a.ncols)
    _assert_canonical_q(basis)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.integers(0, 5), st.booleans(), seeds)
def test_q_combine_matches_a_fraction_sum(n, nterms, cancel, seed):
    rng = random.Random(seed)
    terms = []
    for _ in range(nterms):
        support = sorted(rng.sample(range(n), rng.randrange(n + 1)))
        terms.append((_q_entry(rng, 1.0) or Fraction(1, 3), [(k, _q_entry(rng, 1.0) or Fraction(-5, 2)) for k in support]))
    if cancel and terms:
        # The negated first term cancels it entry by entry.
        terms.append((-terms[0][0], terms[0][1]))
    expected = [Fraction(0)] * n
    for c, entries in terms:
        for k, w in entries:
            expected[k] += c * w
    got = combine(QQ, iter(terms), n)
    assert got == expected
    _assert_canonical_q(Matrix(QQ, [got], 1, n))
