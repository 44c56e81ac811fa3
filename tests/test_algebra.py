"""Algebra construction and derivation: compile, certify, derive, stack."""

import pytest

from silting_forge.algebra import (
    Algebra,
    Arrow,
    Bimodule,
    DomainError,
    QuiverPresentation,
    ValidationError,
    build_triangular,
    compile_quiver_algebra,
    derive_algebra,
    opposite_algebra,
)
from silting_forge.exactlinalg import FieldSpec, Matrix
from silting_forge.gorenstein import GorensteinReport, GpClassification, gorenstein_report, gp_classification
from silting_forge.modules import (
    Module,
    _decomposition,
    _projective_bases,
    ModuleMap,
    direct_sum,
    enumerate_indecomposables,
    global_dimension,
    indecomposable_projectives,
    regular_module,
    simple_module,
)

from conftest import (
    F2,
    QQ,
    quiver_a2,
    quiver_a3_rel,
    quiver_dual_numbers,
    quiver_kxk,
    quiver_point,
    triangular_gamma0,
)


# --------------------------------------------------------------------------
# Quiver validation
# --------------------------------------------------------------------------


def test_quiver_validation_errors():
    with pytest.raises(ValidationError):
        QuiverPresentation(["1", "1"], [], [], F2, 4)
    with pytest.raises(ValidationError):
        QuiverPresentation(["1"], [Arrow("a", "1", "2")], [], F2, 4)
    with pytest.raises(ValidationError):  # relation path too short
        QuiverPresentation(["1"], [Arrow("x", "1", "1")], [[("1", ["x"])]], F2, 4)
    with pytest.raises(ValidationError):  # not composable
        QuiverPresentation(
            ["1", "2"],
            [Arrow("a", "1", "2"), Arrow("b", "1", "2")],
            [[("1", ["a", "b"])]],
            F2,
            4,
        )
    with pytest.raises(ValidationError):  # mixed endpoints in one relation
        QuiverPresentation(
            ["1", "2", "3"],
            [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "2")],
            [[("1", ["a", "b"]), ("1", ["a", "c"])]],
            F2,
            4,
        )


# --------------------------------------------------------------------------
# Compilation oracles
# --------------------------------------------------------------------------


def test_compile_a2():
    a = compile_quiver_algebra(quiver_a2())
    assert a.dim == 3
    assert a.labels == ["e1", "e2", "a"]
    assert [lbl for lbl, _ in a.idempotents] == ["e1", "e2"]
    assert a.radical_rows.nrows == 1
    # a = e2 * a * e1  (arrow u->v equals e_v a e_u)
    va = a.basis_vector(2)
    e1 = a.idempotent_vector("e1")
    e2 = a.idempotent_vector("e2")
    assert a.multiply(e2, a.multiply(va, e1)) == va
    assert a.multiply(va, va) == [F2.zero()] * 3


def test_compile_dual_numbers():
    d = compile_quiver_algebra(quiver_dual_numbers())
    assert d.dim == 2
    assert d.labels == ["ev", "x"]
    x = d.basis_vector(1)
    assert d.multiply(x, x) == [F2.zero()] * 2
    assert d.radical_rows.nrows == 1


def test_compile_a3_with_relation():
    # Oracle: irreducible paths are e1, e2, e3, a, b; the composite dies.
    a = compile_quiver_algebra(quiver_a3_rel())
    assert a.dim == 5
    assert a.labels == ["e1", "e2", "e3", "a", "b"]
    va, vb = a.basis_vector(3), a.basis_vector(4)
    # path ["a","b"] (a first, then b) is the product b*a, and it is zero
    assert a.multiply(vb, va) == [F2.zero()] * 5


def test_compile_a3_no_relation():
    q = QuiverPresentation(
        ["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")], [], F2, 8
    )
    a = compile_quiver_algebra(q)
    assert a.dim == 6  # e1,e2,e3,a,b,ab
    va, vb = a.basis_vector(a.index_of("a")), a.basis_vector(a.index_of("b"))
    prod = a.multiply(vb, va)
    assert prod == a.basis_vector(a.index_of("a*b"))


def test_compile_kxk_and_point():
    assert compile_quiver_algebra(quiver_kxk()).dim == 2
    p = compile_quiver_algebra(quiver_point())
    assert p.dim == 1
    assert p.radical_rows.nrows == 0


def test_uncertified_infinite_dimension():
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v")], [], F2, 5)
    with pytest.raises(DomainError) as exc:
        compile_quiver_algebra(q)
    assert "path" in str(exc.value)


def test_higher_nilpotency_relation():
    # Loop with x^3 = 0: dim 3, needs bound >= 3.
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v")], [[("1", ["x", "x", "x"])]], QQ, 6)
    a = compile_quiver_algebra(q)
    assert a.dim == 3
    x = a.basis_vector(1)
    x2 = a.multiply(x, x)
    assert x2 == a.basis_vector(2)
    assert a.multiply(x, x2) == [QQ.zero()] * 3


def test_inhomogeneous_relation():
    # Commutative square with d*c = b*a identification:
    # 1 -a-> 2 -b-> 4 and 1 -c-> 3 -d-> 4, relation ["a","b"] - ["c","d"].
    q = QuiverPresentation(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")],
        [[("1", ["a", "b"]), ("-1", ["c", "d"])]],
        QQ,
        8,
    )
    alg = compile_quiver_algebra(q)
    # Oracle: 4 vertices + 4 arrows + 1 surviving length-2 class = 9.
    assert alg.dim == 9
    va = alg.basis_vector(alg.index_of("a"))
    vb = alg.basis_vector(alg.index_of("b"))
    vc = alg.basis_vector(alg.index_of("c"))
    vd = alg.basis_vector(alg.index_of("d"))
    assert alg.multiply(vb, va) == alg.multiply(vd, vc)  # the two composites agree


# --------------------------------------------------------------------------
# Certification catches corrupt data
# --------------------------------------------------------------------------


def test_certification_rejects_nonassociative():
    f = QQ
    # 2-dim with b*b = unit is fine (k[x]/(x^2-1)) but idempotent data breaks:
    # instead corrupt associativity directly: b*b = b with unit e only on left.
    labels = ["e", "b"]
    # e*e=e, e*b=b, b*e=0 (broken), b*b=0
    constants = [
        [[f.one(), f.zero()], [f.zero(), f.one()]],
        [[f.zero(), f.zero()], [f.zero(), f.zero()]],
    ]
    idem = [("e", [f.one(), f.zero()])]
    rad = Matrix.from_rows(f, [[0, 1]])
    with pytest.raises(ValidationError):
        Algebra(f, labels, constants, idem, rad, "quiver")


def test_certification_rejects_bad_radical():
    f = QQ
    # k x k but radical candidate wrongly claims a 1-dim radical.
    labels = ["e1", "e2"]
    constants = [
        [[f.one(), f.zero()], [f.zero(), f.zero()]],
        [[f.zero(), f.zero()], [f.zero(), f.one()]],
    ]
    idem = [("e1", [f.one(), f.zero()]), ("e2", [f.zero(), f.one()])]
    bad_rad = Matrix.from_rows(f, [[0, 1]])  # span{e2} is an ideal but not nilpotent
    with pytest.raises(ValidationError):
        Algebra(f, labels, constants, idem, bad_rad, "quiver")


def test_certification_rejects_imprimitive_idempotent():
    f = QQ
    # k x k presented with a single idempotent 1 = e1+e2: not primitive.
    labels = ["e1", "e2"]
    constants = [
        [[f.one(), f.zero()], [f.zero(), f.zero()]],
        [[f.zero(), f.zero()], [f.zero(), f.one()]],
    ]
    idem = [("u", [f.one(), f.one()])]
    rad = Matrix.zeros(f, 0, 2)
    with pytest.raises(ValidationError):
        Algebra(f, labels, constants, idem, rad, "quiver")


# --------------------------------------------------------------------------
# Derivations
# --------------------------------------------------------------------------


def test_opposite_of_commutative_is_same(dual):
    opp, maps = derive_algebra(dual, "opposite")
    assert opp.constants == dual.constants  # commutative
    assert maps["kind"] == "opposite"


def test_opposite_reverses(a2):
    opp, _ = derive_algebra(a2, "opposite")
    va = opp.basis_vector(2)
    e1 = opp.idempotent_vector("e1")
    e2 = opp.idempotent_vector("e2")
    # In the opposite algebra the arrow runs 2 -> 1: a = e1 * a * e2.
    assert opp.multiply(e1, opp.multiply(va, e2)) == va


def test_corner_of_a2(a2):
    c, maps = derive_algebra(a2, "corner", e=["e2"])
    assert c.dim == 1
    assert [lbl for lbl, _ in c.idempotents] == ["e2"]
    assert maps["inclusion"].nrows == 1


def test_corner_full_is_whole(a2):
    c, _ = derive_algebra(a2, "corner", e=["e1", "e2"])
    assert c.dim == a2.dim


def test_quotient_of_a2(a2):
    q, maps = derive_algebra(a2, "quotient_idempotent_ideal", e=["e2"])
    # Oracle: ideal A e2 A = span{e2, a}, quotient = span{e1}.
    assert q.dim == 1
    assert q.labels == ["e1"]
    assert maps["ideal"].nrows == 2


def test_quotient_of_a3rel(a3rel):
    q, _ = derive_algebra(a3rel, "quotient_idempotent_ideal", e=["e2"])
    # Ideal = span{e2, a, b}; quotient = span{e1, e3} = k x k.
    assert q.dim == 2
    assert sorted(q.labels) == ["e1", "e3"]
    assert q.radical_rows.nrows == 0


def test_corner_quotient_dim_bound(a3rel):
    c, _ = derive_algebra(a3rel, "corner", e=["e2"])
    q, _ = derive_algebra(a3rel, "quotient_idempotent_ideal", e=["e2"])
    assert c.dim + q.dim <= a3rel.dim


def test_unknown_idempotent_rejected(a2):
    with pytest.raises(ValidationError):
        derive_algebra(a2, "corner", e=["e9"])


def test_tensor_a2_a2(a2):
    t, maps = derive_algebra(a2, "tensor", b=a2)
    assert t.dim == 9
    assert len(t.idempotents) == 4
    assert t.radical_rows.nrows == 9 - 4  # rad dim: 1*3 + 3*1 - 1*1 = 5
    # embeddings are unital algebra maps on idempotents
    le = maps["left_embed"]
    one_img = le.mul(Matrix.column(a2.field, a2.unit()))
    assert [one_img.data[i][0] for i in range(9)] == t.unit()


def test_tensor_field_mismatch(a2):
    other = compile_quiver_algebra(quiver_a2(QQ))
    with pytest.raises(ValidationError):
        derive_algebra(a2, "tensor", b=other)


# --------------------------------------------------------------------------
# Triangular contexts (bimodule-free cases; flags tested with modules)
# --------------------------------------------------------------------------


def test_triangular_zero_bimodule(a2, point):
    n = Bimodule.zero(a2, point)
    ctx = build_triangular(a2, point, n)
    assert ctx.gamma.dim == 4  # 3 + 0 + 1, i.e. kA_2 x k
    assert len(ctx.gamma.idempotents) == 3
    assert ctx.hypothesis_flags == {"left_n_projective": True, "right_n_projective": True}


def test_bimodule_validation(a2, point):
    f = a2.field
    # A 1-dim (kA_2, k)-bimodule where e1 acts as identity and e2, a act as 0.
    left = {
        "e1": Matrix.identity(f, 1),
        "e2": Matrix.zeros(f, 1, 1),
        "a": Matrix.zeros(f, 1, 1),
    }
    right = {"e1": Matrix.identity(f, 1)}
    bm = Bimodule(a2, point, 1, left, right)
    assert bm.dim == 1
    # Broken: unit does not act as identity.
    bad_left = dict(left, e1=Matrix.zeros(f, 1, 1))
    with pytest.raises(ValidationError):
        Bimodule(a2, point, 1, bad_left, right)


# --------------------------------------------------------------------------
# Memoization
# --------------------------------------------------------------------------


def _content(value):
    """A value with every object replaced by comparable content."""
    if isinstance(value, Algebra):
        return value.content_hash()
    if isinstance(value, Module):
        return value.encode()
    if isinstance(value, ModuleMap):
        return (_content(value.source), _content(value.target), value.matrix)
    if isinstance(value, (GorensteinReport, GpClassification)):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_content(v) for v in value]
    if isinstance(value, dict):
        return {k: _content(v) for k, v in value.items()}
    return value


def test_memoized_values_are_derived_once_per_owner():
    def owners():
        alg = compile_quiver_algebra(quiver_a3_rel())
        s1 = simple_module(alg, "e1")
        m, _, _ = direct_sum([s1, s1, regular_module(alg)], algebra=alg)
        return alg, m, triangular_gamma0()

    first, second = owners(), owners()
    # (owner index, function, arguments); the triangular classification also
    # fills memos on its two corners and on the triangular algebra
    calls = [
        (0, Algebra.generating_set, ()),
        (0, regular_module, ()),
        (0, indecomposable_projectives, ()),
        (0, _projective_bases, ()),
        (0, opposite_algebra, ()),
        (0, global_dimension, (3,)),
        (0, gorenstein_report, (3,)),
        (0, gp_classification, (2,)),
        (0, enumerate_indecomposables, (2,)),
        (1, Module.adapted, ()),
        (1, Module.radical_columns, ()),
        (1, _decomposition, ()),
        (2, gp_classification, (3,)),
    ]
    for index, fn, args in calls:
        value = fn(first[index], *args)
        assert fn(first[index], *args) is value, fn.__name__
        again = fn(second[index], *args)
        if not isinstance(value, int):
            assert again is not value, fn.__name__
        assert _content(again) == _content(value), fn.__name__
    alg = first[0]
    assert gorenstein_report(alg) is gorenstein_report(alg, 10) is gorenstein_report(alg, bound=10)
    assert gorenstein_report(alg, 2) is not gorenstein_report(alg, 3)
    assert gorenstein_report(alg, 2).bound == 2
    small, large = enumerate_indecomposables(alg, 1), enumerate_indecomposables(alg, 2)
    assert len(small) < len(large) and small is not large
    report = gorenstein_report(alg, 3)
    assert gp_classification(alg, 2, report) is gp_classification(alg, dim_bound=2, report=report)
    assert gp_classification(alg, 2, report) is not gp_classification(alg, 2)
