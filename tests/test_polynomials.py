"""The in-house polynomial factorizer.

``factor`` is compared with sympy's ``Poly.factor_list`` (a test-only
reference, skipped when sympy is not installed) on every small monic
polynomial over F_2, F_3 and F_5, on p-th powers, and on random products over
Q.  Decompositions that reach the factor-driven split are compared with a run
that factors through the same reference, with ``import sympy`` blocked for
the in-house run."""

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from conftest import F2, F3, QQ, permuted_actions
from silting_forge import polynomials
from silting_forge.exactlinalg import FieldSpec, Matrix, invert
from silting_forge.io import CORPUS_DIR, algebra_from_json, corpus_load
from silting_forge.algebra import ValidationError
from silting_forge.modules import Module, _split_from_endomorphism, decompose, direct_sum, hom_dim, regular_module, simple_module
from silting_forge.polynomials import derivative, divmod, factor, gcd, mul, power
from silting_forge.recollement import _t_b, _z_a, random_probe_modules

F5 = FieldSpec("prime", 5)


def _sympy_factor(coeffs, field):
    """``factor`` through sympy: its factor_list, each factor made monic."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if field.kind == "prime":
        poly = sympy.Poly(sum(int(c) * x**i for i, c in enumerate(coeffs)), x, modulus=field.p)
    else:
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
        poly = sympy.Poly(expr, x, domain=sympy.QQ)
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = fac.all_coeffs()[::-1]
        if field.kind == "prime":
            inv = pow(int(cs[-1]), -1, field.p)
            out.append(([int(c) * inv % field.p for c in cs], int(mult)))
        else:
            ratios = [sympy.Rational(c, cs[-1]) for c in cs]
            out.append(([Fraction(int(r.p), int(r.q)) for r in ratios], int(mult)))
    return out


def _product(factors, field):
    out = [field.one()]
    for fac, mult in factors:
        out = mul(out, power(fac, mult, field), field)
    return out


def _random_poly(rng, field, degree):
    if field.kind == "prime":
        return [rng.randrange(field.p) for _ in range(degree)] + [1]
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)]
    return coeffs + [Fraction(rng.choice((1, 2, 3, -2)), rng.randint(1, 2))]


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=["F2", "F5", "Q"])
def test_division_gcd_and_derivative(field):
    rng = random.Random(3)
    for _ in range(60):
        a = _random_poly(rng, field, rng.randint(0, 6))
        b = _random_poly(rng, field, rng.randint(0, 4))
        c = _random_poly(rng, field, rng.randint(1, 3))
        q, r = divmod(a, b, field)
        assert polynomials._combine(mul(q, b, field), r, field.add) == a and len(r) < len(b)
        g = gcd(mul(a, c, field), mul(b, c, field), field)
        assert g[-1] == 1 and not divmod(g, c, field)[1] and not divmod(mul(a, c, field), g, field)[1]
        # Leibniz rule
        lhs = derivative(mul(a, b, field), field)
        rhs = polynomials._combine(mul(derivative(a, field), b, field), mul(a, derivative(b, field), field), field.add)
        assert lhs == rhs
    assert divmod([1, 1], [0, 0, 1], field) == ([], [1, 1])
    assert gcd([], [], field) == [] and factor([3], field) == []


# ---------------------------------------------------------------------------
# Factorization against the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,top", [(F2, 8), (F3, 5), (F5, 4)], ids=["F2", "F3", "F5"])
def test_every_small_monic_polynomial_matches_sympy(field, top):
    for degree in range(1, top + 1):
        for tail in itertools.product(range(field.p), repeat=degree):
            coeffs = list(tail) + [1]
            assert factor(coeffs, field) == _sympy_factor(coeffs, field), coeffs


@pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_pth_powers_match_sympy(field):
    # f^p and f(x^p) have derivative zero: the p-th-root step of the
    # squarefree decomposition, nested once more for f^(p^2)
    p, rng = field.p, random.Random(field.p)
    for _ in range(25):
        f = _random_poly(rng, field, rng.randint(1, 3))
        g = mul(f, _random_poly(rng, field, 1), field)
        spread = [0] * (p * (len(f) - 1) + 1)
        spread[::p] = f
        for coeffs in (power(f, p, field), spread, mul(power(g, p * p, field), g, field)):
            got = factor(coeffs, field)
            assert got == _sympy_factor(coeffs, field), coeffs
            assert _product(got, field) == coeffs


def test_rational_products_match_sympy():
    rng = random.Random(10)
    for _ in range(120):
        coeffs = [Fraction(1)]
        while len(coeffs) < rng.randint(2, 11):
            fac = _random_poly(rng, QQ, rng.randint(1, 3))
            coeffs = mul(coeffs, power(fac, rng.choice((1, 1, 2, 3)), QQ), QQ)
        got = factor(coeffs, QQ)
        assert got == _sympy_factor(coeffs, QQ), coeffs
        assert _product(got, QQ) == polynomials.monic(coeffs, QQ)


def test_swinnerton_dyer_quartic():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt 2 + sqrt 3, splits mod
    # every prime, so no single modular factorization shows irreducibility
    quartic = [Fraction(c) for c in (1, 0, -10, 0, 1)]
    assert factor(quartic, QQ) == _sympy_factor(quartic, QQ) == [(quartic, 1)]
    for p in (2, 3, 5, 7, 11, 13):
        field = FieldSpec("prime", p)
        reduced = [field.coerce(c) for c in quartic]
        assert factor(reduced, field) != [(reduced, 1)]


def test_large_prime_field():
    # at most p gcds per split, but a few expected: p near 2^31 stays cheap
    field = FieldSpec("prime", 2**31 - 1)
    rng = random.Random(31)
    for _ in range(10):
        coeffs = mul(
            power(_random_poly(rng, field, rng.randint(1, 2)), rng.randint(1, 2), field),
            mul(_random_poly(rng, field, 1), _random_poly(rng, field, rng.randint(1, 3)), field),
            field,
        )
        got = factor(coeffs, field)
        assert got == _sympy_factor(coeffs, field)
        assert _product(got, field) == coeffs


# ---------------------------------------------------------------------------
# Decompositions through the factorizer
# ---------------------------------------------------------------------------


def _gamma0_five_three():
    """The (5, 3) module over gamma0: Z_A(S ⊕ S) ⊕ T_B(D ⊕ k), End of
    dimension 15, so 2^15 elements are too many to scan."""
    tctx = corpus_load("gamma0")
    top = simple_module(tctx.a, tctx.a.idempotents[0][0])
    x, _, _ = direct_sum([top, top], algebra=tctx.a)
    y, _, _ = direct_sum([regular_module(tctx.b), simple_module(tctx.b, tctx.b.idempotents[0][0])], algebra=tctx.b)
    t, _, _ = direct_sum([_z_a(tctx, x), _t_b(tctx, y)], algebra=tctx.gamma)
    return t


def _q_probes():
    """The Q probes of the odd-fields benchmark workload: fixed probe seeds
    over linear A_2, A_3 and a3rel."""
    def linear(n):
        vertices = [str(i) for i in range(1, n + 1)]
        arrows = [{"name": f"a{i}", "source": str(i), "target": str(i + 1)} for i in range(1, n)]
        return algebra_from_json({"field": {"kind": "rational"}, "quiver": {"vertices": vertices, "arrows": arrows}, "relations": []})

    payload = json.loads((CORPUS_DIR / "a3rel.json").read_text())["payload"]
    a3rel = algebra_from_json(dict(payload, field={"kind": "rational"}))
    probes = []
    for alg, count, seed in ((linear(2), 3, 3), (linear(3), 2, 18), (a3rel, 2, 119)):
        probes += random_probe_modules(alg, count, seed=seed)
    return probes


def _unimodular_copy(m, rng):
    """``m`` in the basis of a random unimodular L·U over {-1, 0, 1}."""
    f, n = m.algebra.field, m.dim
    lower = [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0 for j in range(n)] for i in range(n)]
    p = Matrix.from_rows(f, lower).mul(Matrix.from_rows(f, upper))
    p_inv = invert(p)
    return Module(m.algebra, n, {lbl: p_inv.mul(a).mul(p) for lbl, a in m.action.items()})


def _decomposition(algebra, dim, action):
    """Part encodings, multiplicities and splitting matrices of a module built
    from its matrices."""
    fresh = Module(algebra, dim, action)
    return [
        (part.encode(), mult, [(inj.matrix.to_lists(), proj.matrix.to_lists()) for inj, proj in maps])
        for part, mult, maps in decompose(fresh)
    ]


def test_decompositions_match_the_sympy_reference(monkeypatch):
    pytest.importorskip("sympy")
    t = _gamma0_five_three()
    assert t.dimension_vector() == {"a.eu": 5, "b.ev": 3} and hom_dim(t, t) == 15
    rng = random.Random(4)
    # Each run builds every module anew from these matrices and drops it after.
    # Modules are interned by content, so a module alive across the runs would
    # reach the second one decomposed already.  t stays alive, so every module
    # enters in a permuted basis.
    modules = [
        (m.algebra, m.dim, permuted_actions(m))
        for m in [t, _unimodular_copy(t, rng)] + [_unimodular_copy(m, rng) for m in _q_probes()]
    ]
    runs, degrees = {}, {}
    for name, factorizer in (("in-house", factor), ("sympy", _sympy_factor)):
        calls = degrees[name] = []

        def counted(coeffs, field, factorizer=factorizer, calls=calls):
            calls.append(len(coeffs) - 1)
            return factorizer(coeffs, field)

        with monkeypatch.context() as patch:
            if name == "in-house":
                patch.setitem(sys.modules, "sympy", None)
            patch.setattr(polynomials, "factor", counted)
            runs[name] = [_decomposition(*spec) for spec in modules]
        assert calls, f"the {name} run never factored"
    # Both runs factored the same polynomials: neither read a decomposition
    # that the other had memoized.
    assert degrees["in-house"] == degrees["sympy"]
    assert runs["in-house"] == runs["sympy"]
    assert [(part.dim, mult) for part, mult, _ in decompose(t)] == [(1, 2), (2, 1), (4, 1)]


def test_a_wrong_factorization_fails_loudly(monkeypatch):
    # the identity has minimal polynomial x + 1 over F_2; a factorizer that
    # claims x and x + 1 leaves ker e = 0, which coprime factors of the true
    # minimal polynomial can never do
    t = _gamma0_five_three()
    identity = Matrix.identity(t.algebra.field, t.dim)
    assert _split_from_endomorphism(t, identity) is None
    monkeypatch.setattr(polynomials, "factor", lambda coeffs, field: [([0, 1], 1), ([1, 1], 1)])
    with pytest.raises(ValidationError, match="failed to split"):
        _split_from_endomorphism(t, identity)
