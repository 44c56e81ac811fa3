"""Exact univariate polynomials over F_p and Q, and their factorization.

A polynomial is a dense list of field scalars in ascending order of degree,
with no trailing zeros, so ``[]`` is the zero polynomial.  :func:`factor`
splits a polynomial into monic irreducibles with multiplicities:

* over F_p, by squarefree decomposition (with the p-th-root step for a part
  whose derivative vanishes) and Berlekamp's algorithm (1967): the
  polynomials v with v^p ≡ v modulo a squarefree g form the nullspace of
  Q - I, where row i of Q is x^(ip) mod g, and each such v is constant modulo
  every irreducible factor of g, so gcds of g with shifts of v split g;
* over Q, by Zassenhaus's algorithm (1969) on each squarefree part of the
  primitive integer polynomial: factor modulo the least prime p that keeps
  the degree and the squarefreeness, Hensel-lift the factors modulo p^l past
  the Mignotte bound, and recombine subsets of them by trial division.

Both are deterministic.  The factors come in one canonical order: by degree,
then multiplicity, then coefficients from the leading one down, read as
residues in [0, p) over F_p and, over Q, as the primitive integer factor
with positive leading coefficient.  Each factor is made monic afterwards.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .exactlinalg import ExactError, FieldSpec, Matrix, nullspace

QQ = FieldSpec("rational")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _strip(a: list) -> list:
    """Drop trailing zeros in place and return ``a``."""
    while a and not a[-1]:
        a.pop()
    return a


def _combine(a: list, b: list, op) -> list:
    """Coefficientwise ``op``; the shorter polynomial is padded with zeros."""
    return _strip([op(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _sub(a: list, b: list, field: FieldSpec) -> list:
    return _combine(a, b, field.sub)


def monic(a: list, field: FieldSpec) -> list:
    """``a`` divided by its leading coefficient (``[]`` stays ``[]``)."""
    if not a:
        return []
    c = field.inv(a[-1])
    return [field.mul(x, c) for x in a]


def mul(a: list, b: list, field: FieldSpec) -> list:
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def divmod(a: list, b: list, field: FieldSpec) -> tuple[list, list]:
    """Quotient and remainder of ``a`` by a nonzero ``b``."""
    if not b:
        raise ExactError("polynomial division by zero")
    shift = len(a) - len(b)
    if shift < 0:
        return [], list(a)
    r = list(a)
    inv = field.inv(b[-1])
    q = [field.zero()] * (shift + 1)
    for i in range(shift, -1, -1):
        c = q[i] = field.mul(r[i + len(b) - 1], inv)
        if c:
            for j, y in enumerate(b):
                r[i + j] = field.sub(r[i + j], field.mul(c, y))
    return q, _strip(r[: len(b) - 1])


def gcd(a: list, b: list, field: FieldSpec) -> list:
    """Monic greatest common divisor (``[]`` when both are zero)."""
    while b:
        a, b = b, divmod(a, b, field)[1]
    return monic(a, field)


def derivative(a: list, field: FieldSpec) -> list:
    return _strip([field.mul(field.coerce(i), c) for i, c in enumerate(a)][1:])


def power(a: list, e: int, field: FieldSpec) -> list:
    out = [field.one()]
    for _ in range(e):
        out = mul(out, a, field)
    return out


def _powmod(a: list, e: int, m: list, field: FieldSpec) -> list:
    """a^e mod m by repeated squaring."""
    out, base = [field.one()], divmod(a, m, field)[1]
    while e:
        if e & 1:
            out = divmod(mul(out, base, field), m, field)[1]
        base = divmod(mul(base, base, field), m, field)[1]
        e >>= 1
    return divmod(out, m, field)[1]


def _xgcd(a: list, b: list, field: FieldSpec) -> tuple[list, list]:
    """(s, t) with s·a + t·b = 1, for coprime ``a`` and ``b``."""
    r0, r1, s0, s1, t0, t1 = a, b, [field.one()], [], [], [field.one()]
    while r1:
        q, r = divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, mul(q, s1, field), field)
        t0, t1 = t1, _sub(t0, mul(q, t1, field), field)
    if len(r0) != 1:
        raise ExactError("extended gcd of polynomials that are not coprime")
    c = field.inv(r0[0])
    return [field.mul(x, c) for x in s0], [field.mul(x, c) for x in t0]


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def factor(coeffs: list, field: FieldSpec) -> list[tuple[list, int]]:
    """``[(monic irreducible, multiplicity)]`` of a nonzero polynomial, in the
    canonical order of the module docstring; ``[]`` for a constant."""
    f = monic(_strip([field.coerce(c) for c in coeffs]), field)
    if len(f) <= 1:
        return []
    parts = _squarefree(f, field)
    if field.kind == "prime":
        found = [(g, mult) for part, mult in parts for g in _berlekamp(part, field)]
    else:
        found = [(g, mult) for part, mult in parts for g in _zassenhaus(_primitive(part))]
    found.sort(key=lambda t: (len(t[0]), t[1], t[0][::-1]))
    return [(monic([field.coerce(c) for c in g], field), mult) for g, mult in found]


def _squarefree(f: list, field: FieldSpec) -> list[tuple[list, int]]:
    """Pairwise coprime nonconstant squarefree monic parts of a monic ``f``
    with multiplicities, whose product with powers is ``f`` (Yun; in
    characteristic p the part left over is a polynomial in x^p, whose p-th
    root is decomposed again)."""
    out = []
    c = gcd(f, derivative(f, field), field)
    w = divmod(f, c, field)[0]
    i = 1
    while len(w) > 1:
        y = gcd(w, c, field)
        z = divmod(w, y, field)[0]
        if len(z) > 1:
            out.append((z, i))
        w, c, i = y, divmod(c, y, field)[0], i + 1
    if len(c) > 1:
        # a^(1/p) = a in F_p, so the p-th root keeps every p-th coefficient
        p = field.p
        out.extend((g, mult * p) for g, mult in _squarefree(c[::p], field))
    return out


def _berlekamp(g: list, field: FieldSpec) -> list[list]:
    """Monic irreducible factors of a squarefree monic ``g`` over F_p."""
    n = len(g) - 1
    if n <= 1:
        return [g]
    p = field.p
    xp = _powmod([0, 1], p, g, field)
    rows, row = [], [1]
    for _ in range(n):
        rows.append(row + [0] * (n - len(row)))
        row = divmod(mul(row, xp, field), g, field)[1]
    # v = Σ v_j x^j has v^p ≡ Σ v_j x^(jp) (mod g): v is fixed iff Σ_j v_j rows[j] = v
    fixed = Matrix(field, [[(rows[j][i] - (i == j)) % p for j in range(n)] for i in range(n)], n, n)
    basis = [_strip(vec) for vec in nullspace(fixed).transpose().data]
    return _split(g, basis, field)


def _split(h: list, basis: list[list], field: FieldSpec) -> list[list]:
    """Irreducible factors of a squarefree monic ``h`` that divides the
    polynomial whose fixed space ``basis`` spans.  Reduced modulo h the
    basis spans h's own fixed space, which is the constants exactly when h
    is irreducible."""
    for v in basis:
        r = divmod(v, h, field)[1]
        if len(r) > 1:
            d = _proper_factor(h, r, field)
            return _split(d, basis, field) + _split(divmod(h, d, field)[0], basis, field)
    return [h]


def _proper_factor(h: list, v: list, field: FieldSpec) -> list:
    """A proper monic factor of h, given a fixed v that is not constant mod h.

    v is the constant a_i modulo the i-th irreducible factor of h, and not
    all a_i are equal.  gcd(h, (v + s)^e - 1) with e = (p - 1)/2 (e = 1 when
    p = 2) collects the factors where a_i + s is a nonzero square.  For
    p <= 3 this is gcd(h, v - s') as s' runs over F_p.  For a_i != a_j some
    s in F_p separates them: otherwise the nonzero squares would be closed
    under adding a_j - a_i, so they would be all of F_p or none of it.  So
    at most p gcds are taken, and for large p a few are expected."""
    e = max((field.p - 1) // 2, 1)
    for s in range(field.p):
        shifted = _combine(v, [s], field.add)
        d = gcd(h, _sub(_powmod(shifted, e, h, field), [1], field), field)
        if 1 < len(d) < len(h):
            return d
    raise ExactError("Berlekamp splitting found no proper factor")


def _primitive(a: list) -> list[int]:
    """The primitive integer multiple of a rational polynomial with positive
    leading coefficient."""
    den = math.lcm(*(Fraction(c).denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primes():
    return (n for n in itertools.count(2) if all(n % d for d in range(2, math.isqrt(n) + 1)))


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree ``f`` with
    positive leading coefficient, each primitive with positive leading
    coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    for p in _primes():
        if f[-1] % p:
            fp = FieldSpec("prime", p)
            reduced = monic([c % p for c in f], fp)
            if len(gcd(reduced, derivative(reduced, fp), fp)) == 1:
                break
    modular = _berlekamp(reduced, fp)
    if len(modular) == 1:
        return [f]
    # Mignotte: a factor h of f, scaled to lc(f / h)·h, has coefficients of
    # size at most 2^n·|f|_2, so residues mod p^l > 2B recover it
    bound = 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p
    lifted = _hensel([c * pow(f[-1], -1, modulus) % modulus for c in f], modular, fp, modulus)
    factors, size, half = [], 1, modulus // 2
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            prod = [f[-1]]
            for i in subset:
                prod = _int_mul(prod, lifted[i])
            cand = _primitive([(c + half) % modulus - half for c in prod])
            quo, rem = divmod([Fraction(c) for c in f], [Fraction(c) for c in cand], QQ)
            if not rem:
                factors.append(cand)
                f = [int(c) for c in quo]
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _hensel(f: list[int], factors: list[list], fp: FieldSpec, modulus: int) -> list[list[int]]:
    """Monic integer polynomials, one per factor, whose product is ``f``
    modulo ``modulus`` (a power of p), each congruent to its factor mod p.

    ``f`` is monic modulo ``modulus`` and the product of the pairwise coprime
    monic ``factors`` mod p.  The list is halved; each half is lifted as one
    factor by linear Hensel steps, then split the same way."""
    if len(factors) == 1:
        return [[c % modulus for c in f]]
    half = len(factors) // 2
    g0, h0 = (_prod(part, fp) for part in (factors[:half], factors[half:]))
    s, t = _xgcd(g0, h0, fp)
    g, h, m, p = g0, h0, fp.p, fp.p
    while m < modulus:
        # f ≡ g·h (mod m); find dg, dh with g0·dh + h0·dg ≡ e (mod p), where
        # f - g·h = m·e, so (g + m·dg)(h + m·dh) ≡ f (mod m·p)
        e = _strip([(c // m) % p for c in _combine(f, _int_mul(g, h), operator.sub)])
        q, dg = divmod(mul(t, e, fp), g0, fp)
        dh = _combine(mul(s, e, fp), mul(q, h0, fp), fp.add)
        g = _combine(g, [m * c for c in dg], operator.add)
        h = _combine(h, [m * c for c in dh], operator.add)
        m *= p
    return _hensel(g, factors[:half], fp, modulus) + _hensel(h, factors[half:], fp, modulus)


def _prod(polys: list[list], field: FieldSpec) -> list:
    out = [field.one()]
    for a in polys:
        out = mul(out, a, field)
    return out

