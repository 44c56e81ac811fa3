"""Exact scalar arithmetic and dense linear algebra over F_p and the rationals.

Everything above this module reduces to these kernels.  Two design rules hold
throughout: arithmetic is always exact (prime-field residues as Python ints,
rationals as ``fractions.Fraction``), and every elimination uses the same
deterministic pivoting (leftmost pivot column, first nonzero row) so that all
downstream bases and certificates are byte-reproducible.

Over F_2 the kernels (``Matrix.mul``, ``rref``, ``+``, ``-``, ``scale``) are
chosen from ``field.p`` alone.  ``mul`` and ``rref`` pack each row into one
Python int: the row's entries as bytes, read big-endian, so column ``j`` of an
``n``-column row is bit ``8(n - 1 - j)``.  Packing and unpacking are single
bytes/int conversions, and XOR of two packed rows is their sum.  ``rref``
reads the pivot column of each elimination step off the bit index of its
leading entry.  ``Matrix.data`` stays a list of lists of ints either way.

Over F_p with p > 2, ``mul`` packs rows the same way while ``k·(p-1)² <= 255``
for the inner dimension k (k <= 63 over F_3): row i of the product is the
integer sum of c·(packed row j) over the nonzero entries c of row i, and
every unreduced entry fits its byte.  The packed sum is reduced in one
``bytes.translate`` through ``FieldSpec.residues``, the table of x mod p for
every byte x, which each prime field builds once, when it is made.  ``rref``
over F_p inlines its arithmetic, reducing at every row operation, with no
call into ``FieldSpec`` per scalar.

Each elimination returns one result, in the shape its callers use:
``rref`` gives ``(reduced, pivots)``, ``solve`` the solution with every
free variable zero (or None), ``nullspace`` one ``ncols × nullity`` matrix
whose columns are the canonical kernel basis, and ``invert`` is
``solve(m, I)``.

Over F_p past the byte bound, ``Matrix.mul`` forms row i of the product as
the combination of the rows of the right factor picked out by the nonzero
entries of row i of the left one, visiting only the nonzero entries of those
rows, and reduces each entry once, at the end; :func:`combine` forms such
sums of action matrices for ``Module.act``.

Over Q, ``Matrix.data`` holds ``Fraction``s, but ``mul``, :func:`combine`
and :func:`rref` (so ``solve``, ``nullspace``, ``invert`` and
``row_space_basis``) compute on Python ints: each operand is lifted to
integers over one common denominator, and ``rref`` eliminates fraction-free,
dividing each new row by its content and each pivot row by its pivot once,
at the end.  Each nonzero output entry is one new ``Fraction``; each zero is
the one ``FieldSpec("rational").zero()``, so row comparisons succeed on
identity.  :func:`_generic_mul` and :func:`_generic_rref` are kept as the
references that every product and elimination kernel must agree with.
Kernels wrap the rows they build with ``Matrix._wrap``; the public
``Matrix(...)`` copies them and checks the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import or_
from typing import Iterable, Iterator, Sequence


# The one zero and one of Q that FieldSpec("rational") hands out and every
# Q kernel writes, so that comparing rows of them succeeds on identity.
_ZERO, _ONE = Fraction(0), Fraction(1)


class ExactError(Exception):
    """Base error for the engine; carries optional structured diagnostics."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (covers p <= 2^31)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Exact ground field: ``prime`` (F_p, p prime <= 2^31) or ``rational``.

    A prime field carries ``residues``, the 256-byte table of x mod p for
    each byte x, through which the packed product reduces its rows."""

    kind: str
    p: int | None = None
    residues: bytes = dc_field(default=b"", init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or not (2 <= self.p <= 2**31) or not _is_prime(self.p):
                raise ExactError(f"field parameter p={self.p!r} is not a prime <= 2^31")
            object.__setattr__(self, "residues", bytes(x % self.p for x in range(256)))
        elif self.kind == "rational":
            if self.p is not None:
                raise ExactError("rational field takes no parameter p")
        else:
            raise ExactError(f"unknown field kind {self.kind!r}")

    # -- scalar arithmetic ------------------------------------------------
    def zero(self):
        return 0 if self.kind == "prime" else _ZERO

    def one(self):
        return 1 if self.kind == "prime" else _ONE

    def coerce(self, x):
        """Accept int / Fraction / scalar string and return a field scalar."""
        if isinstance(x, str):
            return self.from_str(x)
        if self.kind == "prime":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ExactError(f"denominator of {x} vanishes mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        return Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a):
        if self.is_zero(a):
            raise ExactError("division by zero")
        return pow(a, -1, self.p) if self.kind == "prime" else 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        s = s.strip()
        if self.kind == "prime":
            if "/" in s:
                num, den = s.split("/")
                return self.coerce(Fraction(int(num), int(den)))
            return int(s) % self.p
        return Fraction(s)

    def elements(self) -> Iterator:
        """Iterate all field elements (prime fields only)."""
        if self.kind != "prime":
            raise ExactError("cannot enumerate the rationals")
        return iter(range(self.p))

    def random(self, rng):
        if self.kind == "prime":
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))


class Matrix:
    """Dense row-major exact matrix over a FieldSpec.

    Entries are canonical field scalars: residues ``0 <= x < p`` over F_p,
    ``Fraction`` over Q.  The F_2 kernels read rows as bytes, so they rely on
    entries being exactly 0 or 1.
    """

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: FieldSpec, data: Sequence[Sequence], nrows: int | None = None, ncols: int | None = None):
        self.field = field
        rows = list(map(list, data))
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) != nrows or not set(map(len, rows)) <= {ncols}:
            raise ExactError(f"ragged matrix data for shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.data = rows

    @staticmethod
    def _wrap(field: FieldSpec, rows: list, nrows: int, ncols: int) -> "Matrix":
        """A matrix owning ``rows`` as given, with no copy and no shape check:
        only for kernel outputs, whose rows are freshly built lists of the
        stated shape that nothing else holds."""
        m = object.__new__(Matrix)
        m.field, m.data, m.nrows, m.ncols = field, rows, nrows, ncols
        return m

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return cls(field, [[field.coerce(x) for x in r] for r in rows])

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return Matrix._wrap(field, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def column(cls, field: FieldSpec, entries: Sequence) -> "Matrix":
        return cls(field, [[field.coerce(x)] for x in entries], len(entries), 1)

    def copy(self) -> "Matrix":
        return Matrix._wrap(self.field, [row[:] for row in self.data], self.nrows, self.ncols)

    # -- basic ops ----------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.kind}{self.field.p or ''})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        f = self.field
        if f.p == 2:
            return self._xor(other)
        return Matrix._wrap(f, [[f.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other, same=True)
        f = self.field
        if f.p == 2:
            return self._xor(other)
        return Matrix._wrap(f, [[f.sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.nrows, self.ncols)

    def _xor(self, other: "Matrix") -> "Matrix":
        """Sum (= difference) over F_2."""
        data = [[a ^ b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        return Matrix._wrap(self.field, data, self.nrows, self.ncols)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix._wrap(f, [[f.neg(a) for a in r] for r in self.data], self.nrows, self.ncols)

    def _check_shape(self, other: "Matrix", same: bool = False):
        if self.field != other.field:
            raise ExactError("field mismatch")
        if same and (self.nrows != other.nrows or self.ncols != other.ncols):
            raise ExactError(f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        if self.ncols != other.nrows:
            raise ExactError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        p = self.field.p
        if p is None or p > 2 and other.nrows * (p - 1) ** 2 > 255:
            return _sparse_mul(self, other)
        # Row i of the product is the sum of the rows of ``other`` picked out
        # by the nonzero entries of row i of ``self``, on packed rows.  Over
        # F_2 the sum is XOR; over F_p the bound keeps each unreduced entry
        # below 256, so no byte carries into its neighbour.
        packed = list(map(int.from_bytes, map(bytes, other.data), repeat("big")))
        n = other.ncols
        out = []
        if p == 2:
            for row in self.data:
                acc = 0
                for v in compress(packed, row):
                    acc ^= v
                out.append(list(acc.to_bytes(n, "big")))
        else:
            residues = self.field.residues
            for row in self.data:
                acc = 0
                for c, v in zip(row, packed):
                    if c:
                        acc += c * v
                out.append(list(acc.to_bytes(n, "big").translate(residues)))
        return Matrix._wrap(self.field, out, self.nrows, n)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        if f.p == 2:
            return self.copy() if c else Matrix.zeros(f, self.nrows, self.ncols)
        return Matrix._wrap(f, [[f.mul(c, a) for a in r] for r in self.data], self.nrows, self.ncols)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, [list(col) for col in zip(*self.data)] if self.nrows else [[] for _ in range(self.ncols)], self.ncols, self.nrows)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.data)

    def power(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ExactError("power of a non-square matrix")
        result = Matrix.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base)
            n >>= 1
        return result

    # -- stacking -----------------------------------------------------------
    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise ExactError("hstack of nothing")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ExactError("hstack row mismatch")
        data = [list(chain.from_iterable(rows)) for rows in zip(*[m.data for m in mats])]
        return Matrix._wrap(mats[0].field, data, nrows, sum(m.ncols for m in mats))

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        mats = list(mats)
        if not mats:
            raise ExactError("vstack of nothing")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ExactError("vstack column mismatch")
        data = [row[:] for m in mats for row in m.data]
        return Matrix._wrap(mats[0].field, data, sum(m.nrows for m in mats), ncols)

    @staticmethod
    def block_diag(field: FieldSpec, mats: Sequence["Matrix"]) -> "Matrix":
        nrows = sum(m.nrows for m in mats)
        ncols = sum(m.ncols for m in mats)
        out = Matrix.zeros(field, nrows, ncols)
        r = c = 0
        for m in mats:
            for i in range(m.nrows):
                out.data[r + i][c : c + m.ncols] = m.data[i][:]
            r += m.nrows
            c += m.ncols
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; block (i,j) is self[i][j] * other."""
        self._check_shape(other)
        f = self.field
        out = Matrix.zeros(f, self.nrows * other.nrows, self.ncols * other.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self.data[i][j]
                if a == 0:
                    continue
                for k in range(other.nrows):
                    orow = other.data[k]
                    trow = out.data[i * other.nrows + k]
                    base = j * other.ncols
                    for l in range(other.ncols):
                        b = orow[l]
                        if b != 0:
                            trow[base + l] = f.mul(a, b)
        return out

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix._wrap(self.field, [[self.data[i][j] for j in cols] for i in rows], len(rows), len(cols))

    # -- serialization --------------------------------------------------------
    def to_lists(self) -> list[list[str]]:
        return [[self.field.to_str(x) for x in row] for row in self.data]

    @classmethod
    def from_lists(cls, field: FieldSpec, rows: Sequence[Sequence[str]], nrows: int | None = None, ncols: int | None = None) -> "Matrix":
        m = cls(field, [[field.from_str(str(x)) for x in r] for r in rows])
        if nrows is not None and (m.nrows, m.ncols) != (nrows, ncols):
            raise ExactError(f"matrix shape {m.nrows}x{m.ncols} does not match declared {nrows}x{ncols}")
        return m


def _lift(values: list) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator."""
    pairs = [(0, 1) if x is _ZERO else x.as_integer_ratio() for x in values]
    den = lcm(*[d for _n, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _common(rows: list) -> tuple[list, int]:
    """Rows of ``(k, (num, den))`` as rows of ``(k, int)`` over one den."""
    den = lcm(*[d for row in rows for _k, (_n, d) in row])
    return [[(k, n * (den // d)) for k, (n, d) in row] for row in rows], den


def _lift_nonzero(m: Matrix) -> tuple[list, int]:
    """:func:`_common` of the nonzero entries of each row of ``m``."""
    return _common([[(k, x.as_integer_ratio()) for k, x in enumerate(row) if x is not _ZERO and x] for row in m.data])


def _lower(nums: list[int], den: int) -> list:
    """The rationals ``nums[k] / den``: the shared zero or a new Fraction."""
    if den == 1:
        return [Fraction(x) if x else _ZERO for x in nums]
    return [Fraction(x, den) if x else _ZERO for x in nums]


def _accumulate(terms: Iterable, n: int) -> list[int]:
    """The integer sum of c·v over pairs of c and v listed by ``(k, w)``."""
    acc = [0] * n
    for c, entries in terms:
        for k, w in entries:
            acc[k] += c * w
    return acc


def combine(field: FieldSpec, terms: Iterable, n: int) -> list:
    """The length-``n`` vector sum of c·v over ``terms``, pairs of a
    coefficient c and a vector v listed by its nonzero entries ``(k, w)``,
    summed on integers (over F_p reduced once, at the end)."""
    if field.p is not None:
        p = field.p
        return [x % p for x in _accumulate(terms, n)]
    terms = list(terms)
    coeffs, e = _lift([c for c, _v in terms])
    vectors, den = _common([[(k, w.as_integer_ratio()) for k, w in v] for _c, v in terms])
    return _lower(_accumulate(zip(coeffs, vectors), n), e * den)


def _sparse_mul(left: Matrix, other: Matrix) -> Matrix:
    """:meth:`Matrix.mul` over F_p (p > 2) and Q: row i of the product is the
    combination of the rows of ``other`` picked out by the nonzero entries of
    row i of ``left``, on integers."""
    f, n, p = left.field, other.ncols, left.field.p
    if p is None:
        rows, den = _lift_nonzero(other)
        lrows, e = _lift_nonzero(left)
        den *= e
    else:
        rows = [[(k, w) for k, w in enumerate(row) if w] for row in other.data]
        lrows = [[(j, v) for j, v in enumerate(row) if v] for row in left.data]
    out = []
    for row in lrows:
        acc = _accumulate([(v, rows[j]) for j, v in row], n)
        out.append(_lower(acc, den) if p is None else [x % p for x in acc])
    return Matrix._wrap(f, out, left.nrows, n)


def _generic_mul(left: Matrix, other: Matrix) -> Matrix:
    """Product over any field by dot products; the reference for both kernels."""
    f = left.field
    ot = [[other.data[k][j] for k in range(other.nrows)] for j in range(other.ncols)]
    if f.kind == "prime":
        p = f.p
        out = [[sum(a * b for a, b in zip(row, col)) % p for col in ot] for row in left.data]
        return Matrix(f, out, left.nrows, other.ncols)
    zero = f.zero()
    out = [[sum((a * b for a, b in zip(row, col)), zero) for col in ot] for row in left.data]
    return Matrix(f, out, left.nrows, other.ncols)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced, pivots)``: ``pivots[i]`` is the pivot column of row
    ``i``, so the rank is ``len(pivots)`` and the rows past it are zero.
    Pivoting is deterministic: leftmost pivot column, first row with a
    nonzero entry.
    """
    p = m.field.p
    if p == 2:
        return _rref_f2(m)
    if p:
        return _rref_fp(m)
    return _rref_q(m)


def _rref_f2(m: Matrix) -> tuple[Matrix, list[int]]:
    """:func:`rref` over F_2 on packed rows, eliminating by XOR."""
    nrows, ncols = m.nrows, m.ncols
    rows = list(map(int.from_bytes, map(bytes, m.data), repeat("big")))
    pivots: list[int] = []
    r = 0
    while r < nrows:
        live = reduce(or_, rows[r:])
        if not live:
            break
        # The leftmost column with a nonzero entry at or below row r is the
        # next pivot column, exactly as in the column-by-column scan.
        bit = live.bit_length() - 1
        i = r
        while not rows[i] >> bit & 1:
            i += 1
        rows[r], rows[i] = rows[i], rows[r]
        pivot = rows[r]
        for i in range(nrows):
            if i != r and rows[i] >> bit & 1:
                rows[i] ^= pivot
        pivots.append(ncols - 1 - bit // 8)
        r += 1
    reduced = Matrix._wrap(m.field, [list(v.to_bytes(ncols, "big")) for v in rows], nrows, ncols)
    return reduced, pivots


def _rref_fp(m: Matrix) -> tuple[Matrix, list[int]]:
    """:func:`rref` over F_p (p > 2): the pivoting of :func:`_generic_rref`
    with the arithmetic inline, each row operation reduced mod p."""
    p, nrows = m.field.p, m.nrows
    a = [row[:] for row in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.ncols):
        if r == nrows:
            break
        i = r
        while i < nrows and not a[i][c]:
            i += 1
        if i == nrows:
            continue
        a[r], a[i] = a[i], a[r]
        lead = a[r][c]
        if lead != 1:
            inv = pow(lead, -1, p)
            a[r] = [inv * x % p for x in a[r]]
        pivot = a[r]
        for i in range(nrows):
            fac = a[i][c]
            if fac and i != r:
                a[i] = [(x - fac * y) % p for x, y in zip(a[i], pivot)]
        pivots.append(c)
        r += 1
    return Matrix._wrap(m.field, a, nrows, m.ncols), pivots


def _rref_q(m: Matrix) -> tuple[Matrix, list[int]]:
    """:func:`rref` over Q, fraction-free (as Bareiss, Math. Comp. 1968, but
    dividing by content): row i becomes lead·(row i) - fac·(pivot row) over
    its content, a nonzero multiple of the row :func:`_generic_rref` holds,
    so the pivots agree."""
    nrows, ncols = m.nrows, m.ncols
    a = [_lift(row)[0] for row in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = r
        while i < nrows and not a[i][c]:
            i += 1
        if i == nrows:
            continue
        a[r], a[i] = a[i], a[r]
        pivot = a[r]
        lead = pivot[c]
        for i in range(nrows):
            fac = a[i][c]
            if fac and i != r:
                row = [lead * x - fac * y for x, y in zip(a[i], pivot)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    out = [_lower(row, row[c]) for row, c in zip(a, pivots)]
    out += [[_ZERO] * ncols for _ in range(nrows - r)]
    return Matrix._wrap(m.field, out, nrows, ncols), pivots


def _generic_rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """:func:`rref` over any field by scalar row operations: the reference
    for the F_2, F_p and Q kernels."""
    f = m.field
    a = [row[:] for row in m.data]
    pivots: list[int] = []
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
        inv = f.inv(a[r][c])
        if inv != f.one():
            a[r] = [f.mul(inv, x) for x in a[r]]
        for i in range(m.nrows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return Matrix(f, a, m.nrows, m.ncols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """The solution x of a·x = b with every free variable zero, for a column
    (or multi-column) right-hand side; None when the system is inconsistent."""
    if a.nrows != b.nrows:
        raise ExactError(f"solve dimension mismatch: {a.nrows} rows vs {b.nrows}")
    n = a.ncols
    reduced, pivots = rref(Matrix.hstack([a, b]))
    if pivots and pivots[-1] >= n:
        return None
    x = Matrix.zeros(a.field, n, b.ncols)
    for i, j in enumerate(pivots):
        x.data[j] = reduced.data[i][n:]
    return x


def nullspace(a: Matrix) -> Matrix:
    """The canonical basis of ker(a) as the columns of an ``ncols × nullity``
    matrix: one column per free variable, in increasing order, with that
    variable one and the other free variables zero."""
    f = a.field
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.ncols) if j not in pivot_set]
    zero, one, neg = f.zero(), f.one(), f.neg
    rows = [[one if j == c else zero for c in free] for j in range(a.ncols)]
    for i, j in enumerate(pivots):
        row = reduced.data[i]
        rows[j] = [neg(row[c]) if row[c] else zero for c in free]
    return Matrix._wrap(f, rows, a.ncols, len(free))


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None when singular."""
    if m.nrows != m.ncols:
        raise ExactError("inverse of a non-square matrix")
    return solve(m, Matrix.identity(m.field, m.nrows))


# ---------------------------------------------------------------------------
# Subspace utilities.  A subspace of k^n is represented by its canonical
# basis: the nonzero rows of the rref of any spanning set (row convention).
# ---------------------------------------------------------------------------


def row_space_basis(vectors: Iterable[Sequence], field: FieldSpec, width: int) -> Matrix:
    """Canonical (rref) basis of the span of the given row vectors."""
    reduced, pivots = rref(Matrix(field, vectors, None, width))
    r = len(pivots)
    return Matrix._wrap(field, reduced.data[:r], r, width)


def reduce_mod_row_space(vector: Sequence, basis: Matrix) -> list:
    """Canonical representative of ``vector`` modulo a canonical row basis.

    The vector lies in the span exactly when the representative is zero:
    ``not any(reduce_mod_row_space(v, basis))``.
    """
    f = basis.field
    v = list(vector)
    for row in basis.data:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None and v[lead] != 0:
            c = v[lead]
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return v


def quotient_map(basis: Matrix, width: int) -> tuple[Matrix, list[int]]:
    """Linear projection k^width -> k^(width - rank) killing exactly the span.

    Returns ``(proj, coordinate_labels)`` where the retained coordinates are
    the non-pivot positions of the canonical basis, in increasing order.
    """
    f = basis.field
    pivots = []
    for row in basis.data:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None:
            pivots.append(lead)
    keep = [j for j in range(width) if j not in pivots]
    # Reduction mod a canonical basis is linear: reduce(x) = x - sum over
    # basis rows of x[lead] * row.  Restricting to the kept coordinates gives
    # the projection matrix directly.
    proj = Matrix.zeros(f, len(keep), width)
    for i, j in enumerate(keep):
        proj.data[i][j] = f.one()
    for row in basis.data:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        for i, j in enumerate(keep):
            proj.data[i][lead] = f.neg(row[j])
    return proj, keep


# ---------------------------------------------------------------------------
# Polynomials of a square matrix, as coefficient lists in ascending degree.
# ---------------------------------------------------------------------------


def min_poly(mat: Matrix) -> list:
    """Monic minimal polynomial coefficients [c_0, ..., c_{k-1}, 1]."""
    f = mat.field
    d = mat.nrows
    if d == 0:
        return [f.one()]
    powers = [Matrix.identity(f, d)]
    flat_rows = []
    while True:
        vec = [powers[-1].data[i][j] for i in range(d) for j in range(d)]
        span = row_space_basis(flat_rows, f, d * d)
        if not any(reduce_mod_row_space(vec, span)):
            break
        flat_rows.append(vec)
        powers.append(powers[-1].mul(mat))
    k = len(flat_rows)
    A = Matrix(f, [[flat_rows[t][i] for t in range(k)] for i in range(d * d)], d * d, k)
    b = Matrix.column(f, [powers[k].data[i][j] for i in range(d) for j in range(d)])
    x = solve(A, b)
    coeffs = [f.neg(x.data[t][0]) for t in range(k)]
    coeffs.append(f.one())
    return coeffs


def eval_poly(coeffs: list, mat: Matrix) -> Matrix:
    """The polynomial ``coeffs`` evaluated at ``mat``."""
    f = mat.field
    d = mat.nrows
    out = Matrix.zeros(f, d, d)
    power = Matrix.identity(f, d)
    for c in coeffs:
        if c != 0:
            out = out + power.scale(c)
        power = power.mul(mat)
    return out
