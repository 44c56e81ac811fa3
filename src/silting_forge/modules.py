"""Finite-dimensional left modules and the workhorse functors.

Modules are explicit matrix representations over a certified
:class:`~silting_forge.algebra.Algebra`.  Every operation returns
certificate-carrying data: maps are validated against all basis actions at
construction, decompositions come with mutually inverse splitting maps, and
isomorphisms come with an invertible witness.  The one search that can run
out of budget is :func:`decompose` on an endomorphism ring too large to scan;
it raises :class:`UndecidedError` rather than guessing, and
:func:`is_isomorphic` raises it only through :func:`decompose`.
"""

from __future__ import annotations

import functools
import itertools
import json
import weakref
from dataclasses import dataclass, field as dc_field
from operator import itemgetter

from .algebra import Algebra, Bimodule, DomainError, ValidationError, derive_algebra, memoized, opposite_algebra, same_algebra
from .exactlinalg import (
    ExactError,
    FieldSpec,
    Matrix,
    combine,
    eval_poly,
    invert,
    min_poly,
    nullspace,
    quotient_map,
    rank,
    reduce_mod_row_space,
    row_space_basis,
    rref,
    solve,
)


class UndecidedError(ExactError):
    """A search exhausted its budget without reaching a certified answer."""


DECOMPOSE_BUDGET = 4096       # max field-element combinations scanned exhaustively
ENUMERATION_BUDGET = 1 << 21  # max action fillings per algebra enumeration
_BATCH_CELLS = 1 << 12        # entries a product over a run of labels keeps within


# ---------------------------------------------------------------------------
# Module / ModuleMap / Presentation
# ---------------------------------------------------------------------------


class Module:
    """A left module given by one action matrix per algebra basis element.

    Modules are interned by content: building a module whose algebra object,
    dimension and action matrices equal those of a live module returns that
    module, already validated and with everything memoized on it.  New content
    is validated in full before it enters the table; invalid content raises
    on every attempt and is never stored.  The table holds its modules weakly,
    so a module leaves it when nothing else refers to it.

    A module is immutable: nothing may change its attributes, its action dict
    or the matrices in it after construction, nor the matrices passed in as
    ``action``, which the module keeps without a copy.  Every holder of equal
    content shares the one object, so a change would reach them all.
    """

    def __new__(cls, algebra: Algebra, dim: int, action: dict[str, Matrix]):
        key = _content_key(algebra, dim, action)
        self = _INTERNED.get(key)  # None also for a key of None
        if self is None:
            self = super().__new__(cls)
            self._key = key
        return self

    def __init__(self, algebra: Algebra, dim: int, action: dict[str, Matrix]):
        if hasattr(self, "_memo"):
            return  # interned: validated when it was first built
        self.algebra = algebra
        self.dim = dim
        self.action = dict(action)
        violations = self._violations()
        if violations:
            raise ValidationError(
                "module action violates the structure constants: " + "; ".join(violations[:5]),
                violations=violations,
            )
        self._memo: dict = {}
        if self._key is not None:
            _INTERNED[self._key] = self
        del self._key

    def _violations(self) -> list[str]:
        a, f, n = self.algebra, self.algebra.field, self.dim
        out = []
        if set(self.action) != set(a.labels):
            return [f"action keys {sorted(self.action)} do not match basis labels {sorted(a.labels)}"]
        for lbl, m in self.action.items():
            if m.nrows != n or m.ncols != n:
                return [f"action of {lbl!r} is {m.nrows}x{m.ncols}, expected {n}x{n}"]
        if n == 0:
            return out
        d = a.dim
        mats = [self.action[lbl] for lbl in a.labels]
        if self.act(a.unit()) != Matrix.identity(f, n):
            out.append("unit does not act as the identity")
        # Row r of block row i of [rho(b_1);...;rho(b_d)]·[rho(b_1)|...|rho(b_d)]
        # is row r of [rho(b_i)·rho(b_1)|...|rho(b_i)·rho(b_d)], and must equal
        # row r of [rho(b_i*b_1)|...|rho(b_i*b_d)], joined from the algebra's
        # product table.  One product gives the rows of a run of labels i: all
        # d of them, unless the module is so large that a (d·n)² product would
        # raise the peak memory, and then as many as keep each product within
        # _BATCH_CELLS entries (at least one).
        side = Matrix.hstack(mats)
        zero = [[f.zero()] * n] * n
        table = _product_table(a)
        step = max(1, _BATCH_CELLS // (d * n * n))
        for start in range(0, d, step):
            stop = min(d, start + step)
            got = Matrix.vstack(mats[start:stop]).mul(side).data
            for t, i in enumerate(range(start, stop)):
                want = [
                    zero if k is None else mats[k].data if isinstance(k, int) else self.act(k).data
                    for k in table[i * d : (i + 1) * d]
                ]
                rows = got[t * n : (t + 1) * n]
                if rows == [list(itertools.chain.from_iterable(parts)) for parts in zip(*want)]:
                    continue
                for j, w in enumerate(want):
                    if any(row[j * n : (j + 1) * n] != w[r] for r, row in enumerate(rows)):
                        out.append(f"rho({a.labels[i]})·rho({a.labels[j]}) != rho({a.labels[i]}*{a.labels[j]})")
            del got  # so that the next run's product does not overlap it
        return out

    def rho(self, label: str) -> Matrix:
        return self.action[label]

    def act(self, vec: list) -> Matrix:
        """Action matrix of a general algebra element (coefficient vector):
        the :func:`combine` of the flattened rho(b_i) by its nonzero
        coefficients, in one pass."""
        f, n = self.algebra.field, self.dim
        terms = [
            (c, [(k, x) for k, x in enumerate(_flat(self.action[lbl])) if x])
            for c, lbl in zip(vec, self.algebra.labels)
            if c
        ]
        flat = combine(f, terms, n * n)
        return Matrix._wrap(f, [flat[r * n : (r + 1) * n] for r in range(n)], n, n)

    def is_zero(self) -> bool:
        return self.dim == 0

    def dimension_vector(self) -> dict[str, int]:
        """dim e_v·M per distinguished idempotent, in idempotent order: ranked
        once per module, and a fresh dict on each call."""
        return dict(self._dimension_vector())

    @memoized
    def _dimension_vector(self) -> dict[str, int]:
        return {lbl: rank(self.act(vec)) for lbl, vec in self.algebra.idempotents}

    @memoized
    def stacked_actions(self) -> tuple[Matrix, Matrix]:
        """[rho(l_1);...;rho(l_d)] and [rho(l_1)|...|rho(l_d)], in label order."""
        mats = [self.action[lbl] for lbl in self.algebra.labels]
        return Matrix.vstack(mats), Matrix.hstack(mats)

    @memoized
    def radical_columns(self) -> Matrix:
        """Canonical column basis of rad(A)·M."""
        rows = []
        for r in self.algebra.radical_rows.data:
            rows.extend(self.act(list(r)).transpose().data)
        return row_space_basis(rows, self.algebra.field, self.dim).transpose()

    @memoized
    def adapted(self) -> "AdaptedModule":
        """The basis change in which every idempotent acts as a coordinate
        projection, with the generator seeds' actions in that basis."""
        f = self.algebra.field
        cols: list[list] = []
        blocks: dict[str, tuple[int, int]] = {}
        for lbl, vec in self.algebra.idempotents:
            reduced, pivots = rref(self.act(vec).transpose())
            start = len(cols)
            cols.extend(reduced.data[: len(pivots)])
            blocks[lbl] = (start, len(cols))
        if len(cols) != self.dim:
            raise ValidationError("idempotent images do not decompose the module")
        S = Matrix(f, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)], self.dim, self.dim)
        Sinv = invert(S)
        if Sinv is None:
            raise ValidationError("idempotent block bases are dependent")
        seeds = self.algebra.generating_set().seeds
        moved = conjugate(Sinv, [self.act(vec) for _name, vec, _blk in seeds], S)
        return AdaptedModule(blocks, Sinv, S, {name: mat for (name, _vec, _blk), mat in zip(seeds, moved)})

    def encode(self) -> str:
        """Deterministic content string (used for ordering and caching)."""
        f = self.algebra.field
        payload = [[lbl, [[f.to_str(x) for x in row] for row in self.action[lbl].data]] for lbl in self.algebra.labels]
        return json.dumps({"dim": self.dim, "action": payload}, sort_keys=True)

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra.provenance} algebra of dim {self.algebra.dim})"


# Live modules by content key.  A module refers to its algebra, so while its
# entry lives no other algebra can take over the id in its key.
_INTERNED: "weakref.WeakValueDictionary[tuple, Module]" = weakref.WeakValueDictionary()


def _content_key(algebra: Algebra, dim: int, action: dict[str, Matrix]) -> tuple | None:
    """(id(algebra), dim, the action matrices in label order packed by
    :func:`_packed`, or over Q as integer (numerator, denominator) pairs).
    None when the labels or shapes are wrong or an entry does not fit a byte
    or is no number, so such input is validated and not interned."""
    if action.keys() != set(algebra.labels):
        return None
    mats = [action[lbl] for lbl in algebra.labels]
    if any(m.nrows != dim or m.ncols != dim for m in mats):
        return None
    p, zero = algebra.field.p, algebra.field.zero()
    try:
        return id(algebra), dim, _packed(p, mats) if p else tuple([(0, 1) if x is zero else x.as_integer_ratio() for m in mats for row in m.data for x in row])
    except (TypeError, ValueError, AttributeError):
        return None


@memoized
def _product_table(alg: Algebra) -> list:
    """How b_i*b_j reads off the basis, at index i·dim + j: None when it is 0,
    k when it is b_k, else its coefficient vector."""
    one, out = alg.field.one(), []
    for vec in itertools.chain.from_iterable(alg.constants):
        support = [k for k, c in enumerate(vec) if c]
        if len(support) == 1 and vec[support[0]] == one:
            out.append(support[0])
        else:
            out.append(vec if support else None)
    return out


def _packed(p: int | None, mats: list[Matrix]) -> bytes | tuple:
    """The rows of ``mats`` in order: one bytes object over F_p for p < 256,
    else a tuple of tuples.  Raises TypeError or ValueError when an entry
    does not fit a byte."""
    if p is not None and p < 256:
        return b"".join([bytes(row) for m in mats for row in m.data])
    return tuple([tuple(row) for m in mats for row in m.data])


@dataclass
class AdaptedModule:
    """Change of basis making every idempotent act as a coordinate projection."""

    blocks: dict[str, tuple[int, int]]  # idempotent label -> (start, stop)
    to_adapted: Matrix                  # S^-1
    from_adapted: Matrix                # S
    action: dict[str, Matrix]           # adapted matrices for generator seeds


class ModuleMap:
    """A homomorphism of left modules, validated against every basis action."""

    def __init__(self, source: Module, target: Module, matrix: Matrix, check: bool = True):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValidationError(
                f"map matrix is {matrix.nrows}x{matrix.ncols}, expected {target.dim}x{source.dim}"
            )
        if not same_algebra(source.algebra, target.algebra):
            raise ValidationError("source and target live over different algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            _check_commutes(source, target, [matrix])

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self ∘ other (apply other first)."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ValidationError("composition mismatch")
        return ModuleMap(other.source, self.target, self.matrix.mul(other.matrix), check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix + other.matrix, check=False)

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix.scale(c), check=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_surjective(self) -> bool:
        return rank(self.matrix) == self.target.dim

    def is_injective(self) -> bool:
        return rank(self.matrix) == self.source.dim

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and rank(self.matrix) == self.source.dim

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


@dataclass
class Presentation:
    """A two-term presentation by modules of a certified kind.

    ``map`` is sigma: P_1 -> P_0; ``cokernel`` with ``coker_map`` (P_0 ->
    cokernel) witnesses coker(sigma).  ``certificates`` records the checks
    performed when the presentation was built.
    """

    kind: str  # "projective" | "gorenstein_projective"
    map: ModuleMap
    cokernel: Module
    coker_map: ModuleMap
    certificates: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("projective", "gorenstein_projective"):
            raise ValidationError(f"unknown presentation kind {self.kind!r}")
        # exactness at P_0: im(map) = ker(coker_map), and coker_map onto
        if not self.coker_map.is_surjective():
            raise ValidationError("cokernel map is not surjective")
        if not self.coker_map.matrix.mul(self.map.matrix).is_zero():
            raise ValidationError("coker_map ∘ map is nonzero")
        if rank(self.map.matrix) + self.cokernel.dim != self.map.target.dim:
            raise ValidationError("cokernel dimension does not match the map's image")


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def validate_module(alg: Algebra, actions: dict[str, Matrix]) -> Module:
    """Check the structure-constant identities and return the module.

    Raises a :class:`ValidationError` carrying the list of violated
    identities in ``diagnostics['violations']`` when invalid.
    """
    dims = {m.nrows for m in actions.values()} | {m.ncols for m in actions.values()}
    dim = dims.pop() if len(dims) == 1 else None
    if dim is None:
        raise ValidationError("action matrices must all be square of one size")
    return Module(alg, dim, actions)


def zero_module(alg: Algebra) -> Module:
    z = Matrix.zeros(alg.field, 0, 0)
    return Module(alg, 0, {lbl: z for lbl in alg.labels})


@memoized
def regular_module(alg: Algebra) -> Module:
    return Module(alg, alg.dim, {lbl: alg.left_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)})


def conjugate(left: Matrix, mats: list[Matrix], right: Matrix) -> list[Matrix]:
    """left·M·right for every M in ``mats`` (all of one shape)."""
    if not mats:
        return []
    return _conjugate_side(left, Matrix.hstack(mats), len(mats), right)


def _conjugate_side(left: Matrix, side: Matrix, k: int, right: Matrix) -> list[Matrix]:
    """left·M_j·right for each of the k blocks of side = [M_1|...|M_k], with
    two products: left·side, then its blocks stacked,
    [left·M_1;...;left·M_k], times right."""
    f, p, m = left.field, left.nrows, side.ncols // k
    moved = left.mul(side).data
    stacked = Matrix._wrap(f, [row[j * m : (j + 1) * m] for j in range(k) for row in moved], k * p, m)
    full = stacked.mul(right).data
    return [Matrix._wrap(f, full[j * p : (j + 1) * p], p, right.ncols) for j in range(k)]


def restrict(basis: Matrix, mats: list[Matrix]) -> list[Matrix] | None:
    """For independent columns ``basis`` (n × k) and nonempty ``mats`` (each
    n × n), the k × k matrices X_i with basis·X_i = M_i·basis, or None when
    some M_i moves a column out of their span.  One product gives
    [M_1;...;M_d]·basis, and one solve of basis against
    [M_1·basis|...|M_d·basis] gives [X_1|...|X_d]."""
    f, n, k, d = basis.field, basis.nrows, basis.ncols, len(mats)
    moved = Matrix.vstack(mats).mul(basis).data
    side = Matrix._wrap(f, [[x for i in range(d) for x in moved[i * n + r]] for r in range(n)], n, d * k)
    x = solve(basis, side)
    if x is None:
        return None
    return [Matrix._wrap(f, [row[i * k : (i + 1) * k] for row in x.data], k, k) for i in range(d)]


def submodule(m: Module, cols: Matrix) -> tuple[Module, ModuleMap]:
    """Submodule spanned by the given (independent) columns, with inclusion."""
    k = cols.ncols
    if rank(cols) != k:
        raise ValidationError("submodule columns are dependent")
    labels = m.algebra.labels
    mats = restrict(cols, [m.action[lbl] for lbl in labels])
    if mats is None:
        lbl = next(lbl for lbl in labels if solve(cols, m.action[lbl].mul(cols)) is None)
        raise ValidationError(f"columns are not stable under the action of {lbl!r}")
    sub = Module(m.algebra, k, dict(zip(labels, mats)))
    # The solve in restrict makes cols·X_l = rho_l·cols exact for every label,
    # so the inclusion commutes with the action by construction.
    return sub, ModuleMap(sub, m, cols, check=False)


def quotient_module(m: Module, cols: Matrix) -> tuple[Module, ModuleMap]:
    """Quotient of m by the action-stable column span, with projection."""
    f = m.algebra.field
    basis_rows = row_space_basis([c for c in cols.transpose().data], f, m.dim)
    proj, _keep = quotient_map(basis_rows, m.dim)
    q = proj.nrows
    section = solve(proj, Matrix.identity(f, q))
    if section is None:
        raise ValidationError("projection has no section")
    labels = m.algebra.labels
    quo = Module(m.algebra, q, dict(zip(labels, conjugate(proj, [m.action[lbl] for lbl in labels], section))))
    return quo, ModuleMap(m, quo, proj)


def kernel(fmap: ModuleMap) -> tuple[Module, ModuleMap]:
    """Kernel of a map as a submodule of its source, with the inclusion."""
    return submodule(fmap.source, nullspace(fmap.matrix))


def cokernel(fmap: ModuleMap) -> tuple[Module, ModuleMap]:
    """Cokernel of a map as a quotient of its target, with the projection."""
    return quotient_module(fmap.target, fmap.matrix)


def direct_sum(parts: list[Module], algebra: Algebra | None = None) -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Block-diagonal sum with canonical injections and projections.

    The sum records its finest known block decomposition (see
    :func:`summands`): the nonzero parts, each replaced by the summands
    recorded for it, at their coordinate positions in the sum, a ``range``
    for each part.  Queries that need only a dimension, a rank or a span
    read the Hom tables of those summands: :func:`hom_dim` on both sides,
    the target of :func:`precompose_corank`'s map, the first module of
    :func:`evaluation_image` and :func:`evaluation_components`, and the
    components of :func:`postcompose_rank`.  :func:`hom_space` still solves
    on the sum, so every basis is unchanged.  A sum equal to one of its
    parts is that part, and records nothing new."""
    if not parts:
        if algebra is None:
            raise ValidationError("empty direct sum needs an explicit algebra")
        return zero_module(algebra), [], []
    alg = parts[0].algebra
    for p in parts[1:]:
        if not same_algebra(p.algebra, alg):
            raise ValidationError("direct sum of modules over different algebras")
    f = alg.field
    total = sum(p.dim for p in parts)
    action = {}
    for lbl in alg.labels:
        action[lbl] = Matrix.block_diag(f, [p.action[lbl] for p in parts])
    whole = Module(alg, total, action)
    injections, projections, record = [], [], []
    eye, offset = Matrix.identity(f, total).data, 0
    for p in parts:
        proj = Matrix._wrap(f, eye[offset : offset + p.dim], p.dim, total)
        injections.append(ModuleMap(p, whole, proj.transpose(), check=False))
        projections.append(ModuleMap(whole, p, proj, check=False))
        block = range(offset, offset + p.dim)
        for x, pos in summands(p):
            if x.dim:
                # a recorded tensor product's positions are a tuple
                record.append((x, block[pos.start : pos.stop] if isinstance(pos, range) else tuple(block[i] for i in pos)))
        offset += p.dim
    _record(whole, record)
    return whole, injections, projections


def summands(m: Module) -> tuple[tuple[Module, range | tuple[int, ...]], ...]:
    """The block decomposition recorded for ``m`` by :func:`direct_sum` or
    :func:`tensor_over_field`, as (summand, positions) pairs: the summands
    are nonzero, none is ``m``, and each acts as the restriction of ``m`` to
    the coordinates at its positions, which partition ``range(m.dim)``.
    ``((m, range(m.dim)),)`` when nothing is recorded."""
    return m._memo.get(summands) or ((m, range(m.dim)),)


def _record(whole: Module, record: list) -> None:
    """Record ``record`` as the decomposition of ``whole`` if it is finer."""
    if len(record) > len(summands(whole)):
        whole._memo[summands] = tuple(record)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def hom_space(m: Module, n: Module) -> list[ModuleMap]:
    """Deterministic basis of Hom(m, n).

    The basis is solved and certified once per live pair: ``m`` keeps it,
    packed, in a table weakly keyed by ``n``.  A packed entry does not refer
    to ``n``, so it dies with either module.  Every call returns fresh maps
    over fresh matrices, which no other caller holds.
    """
    k, entries = _hom_entry(m, n)
    if not k:
        return []
    f, p, q = m.algebra.field, n.dim, m.dim
    if isinstance(entries, bytes):
        rows = [list(entries[s : s + q]) for s in range(0, k * p * q, q)]
    else:
        rows = [list(row) for row in entries]
    return [ModuleMap(m, n, Matrix._wrap(f, rows[j * p : (j + 1) * p], p, q), check=False) for j in range(k)]


def hom_dim(m: Module, n: Module) -> int:
    """dim Hom(m, n), read off the memo without building maps.  Hom is
    additive, so when summands are recorded for ``m`` or ``n`` (see
    :func:`summands`) it is the sum over pairs of their summands, and nothing
    is solved on the sum."""
    xs, ys = summands(m), summands(n)
    if len(xs) == len(ys) == 1:
        return _hom_entry(m, n)[0]
    return sum(hom_dim(x, y) for x, _ in xs for y, _ in ys)


def _hom_entry(m: Module, n: Module) -> tuple[int, bytes | tuple]:
    """dim Hom(m, n) and the rows of its basis matrices, packed by
    :func:`_packed` so that the tables add little to peak memory: a 5×5
    matrix over F_2 takes 25 bytes packed and about 2 KB as a :class:`Matrix`.
    A pair with a zero module has no nonzero map, so it is neither solved nor
    kept."""
    if not (m.dim and n.dim) and same_algebra(m.algebra, n.algebra):
        return 0, ()
    table = m._memo.get(_hom_entry)
    if table is None:
        table = m._memo[_hom_entry] = weakref.WeakKeyDictionary()
    entry = table.get(n)
    if entry is None:
        mats = _hom_matrices(m, n)
        entry = table[n] = (len(mats), _packed(m.algebra.field.p, mats))
    return entry


def _hom_matrices(m: Module, n: Module) -> list[Matrix]:
    """Solve for a basis of Hom(m, n), certified by :func:`_check_commutes`.

    Solved in idempotent-adapted coordinates: the idempotent conditions say
    the unknown matrix is block diagonal along the vertex decomposition, and
    only the radical generators contribute genuine linear equations (they
    generate the algebra together with the idempotents — certified).
    """
    if not same_algebra(m.algebra, n.algebra):
        raise ValidationError("hom_space needs modules over the same algebra")
    alg = m.algebra
    f = alg.field
    if m.dim == 0 or n.dim == 0:
        return []
    am, an = m.adapted(), n.adapted()
    positions: list[tuple[int, int]] = []
    index = [[-1] * m.dim for _ in range(n.dim)]  # (r, c) -> unknown, or -1
    for lbl, _vec in alg.idempotents:
        r0, r1 = an.blocks[lbl]
        c0, c1 = am.blocks[lbl]
        for r in range(r0, r1):
            for c in range(c0, c1):
                index[r][c] = len(positions)
                positions.append((r, c))
    if not positions:
        return []
    rows = []
    for name, _vec, _blk in alg.generating_set().radical_seeds():
        # H·gm - gn·H = 0 entrywise: Σ_c H[a][c]·gm[c][b] - Σ_r gn[a][r]·H[r][b] = 0
        gm_cols = [[(c, x) for c, x in enumerate(col) if x] for col in zip(*am.action[name].data)]
        gn_rows = [[(r, x) for r, x in enumerate(row) if x] for row in an.action[name].data]
        for a_ in range(n.dim):
            for b_ in range(m.dim):
                row = [f.zero()] * len(positions)
                for c, x in gm_cols[b_]:
                    t = index[a_][c]
                    if t >= 0:
                        row[t] = f.add(row[t], x)
                for r, x in gn_rows[a_]:
                    t = index[r][b_]
                    if t >= 0:
                        row[t] = f.sub(row[t], x)
                if any(row):
                    rows.append(row)
    null = nullspace(Matrix._wrap(f, rows, len(rows), len(positions)))
    k = null.ncols
    if not k:
        return []
    # The adapted solutions side by side, [H_1|...|H_k]: solution j fills
    # columns j·dim m onwards.
    side = Matrix.zeros(f, n.dim, k * m.dim)
    for (r, c), coords in zip(positions, null.data):
        row = side.data[r]
        for j, x in enumerate(coords):
            row[j * m.dim + c] = x
    mats = _conjugate_side(an.from_adapted, side, k, am.to_adapted)
    _check_commutes(m, n, mats)
    return mats


def _check_commutes(m: Module, n: Module, mats: list[Matrix]) -> None:
    """Raise :class:`ValidationError` unless every matrix is a homomorphism
    m -> n, naming the first failing label of the first failing matrix.

    Block (i, j) of [rho_n(l_1);...;rho_n(l_d)]·[F_1|...|F_k] is
    rho_n(l_i)·F_j, and block (j, i) of [F_1;...;F_k]·[rho_m(l_1)|...|rho_m(l_d)]
    is F_j·rho_m(l_i): two products check every identity."""
    if not mats or m.dim == 0 or n.dim == 0:
        return
    labels, p, q = m.algebra.labels, n.dim, m.dim
    left = n.stacked_actions()[0].mul(Matrix.hstack(mats)).data
    right = Matrix.vstack(mats).mul(m.stacked_actions()[1]).data
    for j in range(len(mats)):
        # row r of F_j·[rho_m(l_1)|...|rho_m(l_d)] against row r of every
        # rho_n(l_i)·F_j, joined in label order
        cols, rows = slice(j * q, (j + 1) * q), right[j * p : (j + 1) * p]
        if rows == [list(itertools.chain.from_iterable(map(itemgetter(cols), left[r::p]))) for r in range(p)]:
            continue
        for i, lbl in enumerate(labels):
            if any(left[i * p + r][cols] != rows[r][i * q : (i + 1) * q] for r in range(p)):
                raise ValidationError(f"map does not commute with the action of {lbl!r}")


def _flat(mat: Matrix) -> list:
    return list(itertools.chain.from_iterable(mat.data))


def precompose_corank(phi: ModuleMap, u: Module) -> int:
    """dim coker Hom(phi, u), where Hom(phi, u): Hom(target, u) -> Hom(source,
    u) is h |-> h∘phi.  The composites lie in Hom(source, u), so the corank is
    ``hom_dim(phi.source, u)`` less their rank; composites spanning more raise
    :class:`ValidationError`, as then ``phi`` is no homomorphism.

    It is 0 exactly when u lies in the class of phi.  At a minimal projective
    presentation phi of M it is dim Hom(u, tau M), by the exact sequence
    Hom(P_0, u) -> Hom(P_1, u) -> D Hom(u, tau M) -> 0 (Adachi-Iyama-Reiten,
    Prop. 2.4).

    Hom is additive, so no recorded sum (see :func:`summands`) other than u
    is solved whole: ``hom_dim`` reads summands, and the composites are
    spanned by h·phi_k for h in Hom(T_k, u), over the summands T_k of the
    target and the rows phi_k of phi at the positions of T_k."""
    need = hom_dim(phi.source, u)
    if not need:
        return 0
    f, q, rows = u.algebra.field, phi.source.dim, []
    for t, pos in summands(phi.target):
        block = phi.matrix if t is phi.target else phi.matrix.submatrix(pos, range(q))
        rows += [_flat(h.matrix.mul(block)) for h in hom_space(t, u)]
    spanned = row_space_basis(rows, f, u.dim * q).nrows
    if spanned > need:
        raise ValidationError("composites with the map fall outside the Hom space of its source")
    return need - spanned


def evaluation_image(x: Module, u: Module) -> Matrix:
    """Canonical row basis of the sum of the images of all maps x -> u.

    It is the image of the evaluation map x^(dim Hom(x, u)) -> u, through
    which every map x -> u factors, so u lies in Gen x exactly when it has
    dim u rows; for x = ⊕x_i it is the sum of the images of the x_i, read
    off :func:`evaluation_components`."""
    rows = [list(col) for _, h in evaluation_components(x, u) for col in zip(*h.data)]
    return row_space_basis(rows, u.algebra.field, u.dim)


def evaluation_components(x: Module, u: Module) -> list[tuple[Module, Matrix]]:
    """Pairs (X_k, h) over the summands X_k recorded for x (see
    :func:`summands`; or x itself) and the basis h of Hom(X_k, u).  The maps
    h∘pi_k, for pi_k the projection onto X_k, span Hom(x, u), as Hom is
    additive, and x is not solved whole."""
    return [(xk, h.matrix) for xk, _ in summands(x) for h in hom_space(xk, u)]


def postcompose_rank(g: Module, components) -> int:
    """Rank of Hom(g, phi): Hom(g, ⊕X_k) -> Hom(g, Y), h |-> phi∘h, for phi
    given by its ``components``: pairs of X_k and the column block M_k of phi
    on X_k (a plain map is one component).  As Hom(g, ⊕X_k) = ⊕Hom(g, X_k),
    the image is spanned by M_k·h over h in ``hom_space(g, X_k)``, called
    once per distinct X_k, after a component on a recorded sum (see
    :func:`summands`) is split into its columns at the positions of each
    summand.  The map is onto when the rank is ``hom_dim(g, Y)``."""
    groups: dict[int, tuple[Module, list[Matrix]]] = {}
    for x, block in components:
        for xk, pos in summands(x):
            cols = block if xk is x else block.submatrix(range(block.nrows), pos)
            groups.setdefault(id(xk), (xk, []))[1].append(cols)
    rows = [_flat(block.mul(h.matrix)) for x, blocks in groups.values() for h in hom_space(g, x) for block in blocks]
    return row_space_basis(rows, g.algebra.field, len(rows[0]) if rows else 0).nrows


def hom_coordinates(basis: list[ModuleMap], mats: list[Matrix]) -> Matrix:
    """Coordinates of each matrix in a Hom basis, one column per matrix.

    ``basis`` or ``mats`` must be nonempty.  Coordinates in a basis are
    unique; a matrix outside the span raises :class:`ValidationError`."""
    shape = basis[0].matrix if basis else mats[0]
    f, width = shape.field, shape.nrows * shape.ncols
    span = Matrix(f, [_flat(b.matrix) for b in basis], len(basis), width).transpose()
    rhs = Matrix(f, [_flat(m) for m in mats], len(mats), width).transpose()
    coords = solve(span, rhs)
    if coords is None:
        raise ValidationError("a matrix falls outside the span of the Hom basis")
    return coords


def hom_module(basis: list[ModuleMap], alg: Algebra, moves: dict[str, Matrix], on_values: bool = False) -> Module:
    """The span of a Hom basis as a module over ``alg``.

    Label ``l`` sends h to h·moves[l] (acting on the arguments) or, with
    ``on_values``, to moves[l]·h; the action matrix holds the coordinates of
    the moved basis."""
    if not basis:
        return zero_module(alg)
    f, k, hs = alg.field, len(basis), [b.matrix for b in basis]
    p, q = hs[0].nrows, hs[0].ncols
    # For a run of labels, one product gives every moved basis map: block
    # (l, j) of [moves;]·[h_1|...|h_k] is moves[l]·h_j, and block (j, l) of
    # [h_1;...;h_k]·[moves|] is h_j·moves[l].  One solve gives all their
    # coordinates.  A run holds every label unless the moved maps would pass
    # _BATCH_CELLS entries: the one-shot solve raised the heap peak of an
    # F_3 enumeration by 0.18 MB.
    step = max(1, _BATCH_CELLS // (k * p * q))
    action = {}
    for start in range(0, alg.dim, step):
        run = alg.labels[start : start + step]
        ms, r = [moves[lbl] for lbl in run], range(len(run))
        if on_values:
            grid = Matrix.vstack(ms).mul(Matrix.hstack(hs)).data
            moved = [[row[j * q : (j + 1) * q] for row in grid[l * p : (l + 1) * p]] for l in r for j in range(k)]
        else:
            grid = Matrix.vstack(hs).mul(Matrix.hstack(ms)).data
            moved = [[row[l * q : (l + 1) * q] for row in grid[j * p : (j + 1) * p]] for l in r for j in range(k)]
        del grid  # the moved maps hold every row they need
        coords = hom_coordinates(basis, [Matrix._wrap(f, rows, p, q) for rows in moved]).data
        del moved
        for l, lbl in zip(r, run):
            action[lbl] = Matrix._wrap(f, [row[l * k : (l + 1) * k] for row in coords], k, k)
    return Module(alg, k, action)


# ---------------------------------------------------------------------------
# Projectives, covers, presentations
# ---------------------------------------------------------------------------


@memoized
def _projective_bases(alg: Algebra) -> dict[str, Matrix]:
    """Canonical row basis of A·e_v inside the regular module, per vertex."""
    return {
        lbl: row_space_basis([alg.multiply(alg.basis_vector(i), evec) for i in range(alg.dim)], alg.field, alg.dim)
        for lbl, evec in alg.idempotents
    }


@memoized
def indecomposable_projectives(alg: Algebra) -> list[tuple[Module, str]]:
    """P(v) = A·e_v with left multiplication, in idempotent order."""
    reg = regular_module(alg)
    return [(submodule(reg, rows.transpose())[0], lbl) for lbl, rows in _projective_bases(alg).items()]


def simple_module(alg: Algebra, idem_label: str) -> Module:
    """S(v) = P(v) / rad·P(v)."""
    projs = {lbl: mod for mod, lbl in indecomposable_projectives(alg)}
    p = projs[idem_label]
    quo, _ = quotient_module(p, p.radical_columns())
    return quo


def top_generators(m: Module) -> list[tuple[str, Matrix]]:
    """Per-vertex lifts of a basis of m / rad·m, as (idempotent label, column)."""
    f = m.algebra.field
    radm = m.radical_columns()
    rad_rows = [list(r) for r in radm.transpose().data]
    out = []
    span_rows = list(rad_rows)
    for lbl, evec in m.algebra.idempotents:
        proj = m.act(evec)
        for j in range(m.dim):
            col = [proj.data[i][j] for i in range(m.dim)]
            if all(x == 0 for x in col):
                continue
            if not any(reduce_mod_row_space(col, row_space_basis(span_rows, f, m.dim))):
                continue
            span_rows.append(col)
            out.append((lbl, Matrix.column(f, col)))
    return out


def projective_cover(m: Module) -> tuple[Module, ModuleMap, list[str]]:
    """(P, pi, vertex labels) with pi: P -> m surjective and ker(pi) ⊆ rad P."""
    alg = m.algebra
    f = alg.field
    if m.dim == 0:
        z = zero_module(alg)
        return z, ModuleMap(z, m, Matrix.zeros(f, 0, 0), check=False), []
    projs = {lbl: mod for mod, lbl in indecomposable_projectives(alg)}
    bases = _projective_bases(alg)
    gens = top_generators(m)
    P, _, _ = direct_sum([projs[lbl] for lbl, _ in gens], algebra=alg)
    # map P(lbl) -> m : q |-> rho_m(q)·w, where q runs over the basis of
    # P(lbl) inside the regular module
    blocks = [Matrix.hstack([m.act(list(q)).mul(w) for q in bases[lbl].data]) for lbl, w in gens]
    pi_matrix = Matrix.hstack(blocks) if blocks else Matrix.zeros(f, m.dim, 0)
    pi = ModuleMap(P, m, pi_matrix)
    if not pi.is_surjective():
        raise ValidationError("projective cover construction failed surjectivity")
    # minimality: ker(pi) ⊆ rad·P
    radP_rows = row_space_basis([list(r) for r in P.radical_columns().transpose().data], f, P.dim)
    for v in nullspace(pi_matrix).transpose().data:
        if any(reduce_mod_row_space(v, radP_rows)):
            raise ValidationError("projective cover is not minimal (kernel escapes the radical)")
    return P, pi, [lbl for lbl, _ in gens]


def is_projective(m: Module) -> bool:
    if m.dim == 0:
        return True
    P, _, _ = projective_cover(m)
    return P.dim == m.dim


def _cover_map(m: Module) -> ModuleMap:
    return projective_cover(m)[1]


def resolution(m: Module, approximate):
    """The resolution ... -> X_1 -> X_0 -> m -> 0 built by ``approximate``.

    ``approximate`` maps a module onto it: the map of :func:`projective_cover`,
    or a right approximation from a class.  Step t yields the approximation
    X_t -> Ω_t of the t-th syzygy (Ω_0 = m, Ω_{t+1} = its kernel) and the
    differential d_t: X_t -> X_{t-1}, the approximation followed by the
    inclusion of Ω_t (d_0 is the approximation itself).  Ω_{t+1} is computed
    only when step t+1 is requested.
    """
    approx = approximate(m)
    yield approx, approx
    while True:
        syzygy, inclusion = kernel(approx)
        approx = approximate(syzygy)
        yield approx, inclusion.compose(approx)


def projective_dimension(m: Module, bound: int = 10) -> int | None:
    """Length of the minimal projective resolution, or None beyond ``bound``.

    Iterates minimal syzygies: pd(m) = d exactly when the d-th syzygy is
    projective, and minimality of each cover makes the syzygy sequence
    canonical, so the first projective syzygy gives the dimension.
    """
    for d, (cover, _) in zip(range(bound + 1), resolution(m, _cover_map)):
        if cover.source.dim == cover.target.dim:
            return d
    return None


@memoized
def global_dimension(alg: Algebra, bound: int = 10) -> int | None:
    """Max projective dimension over the simple modules, or None beyond bound."""
    worst = 0
    for lbl, _ in alg.idempotents:
        pd = projective_dimension(simple_module(alg, lbl), bound)
        if pd is None:
            return None
        worst = max(worst, pd)
    return worst


def minimal_projective_presentation(m: Module) -> Presentation:
    """P_1 --sigma--> P_0 --pi--> m -> 0 with both terms minimal."""
    vertices: list[list[str]] = []

    def cover(x: Module) -> ModuleMap:
        _, pi, labels = projective_cover(x)
        vertices.append(labels)
        return pi

    (pi, _), (_, sigma) = itertools.islice(resolution(m, cover), 2)
    return Presentation(
        kind="projective",
        map=sigma,
        cokernel=m,
        coker_map=pi,
        certificates={
            "cover_vertices": vertices[0],
            "syzygy_vertices": vertices[1],
            "minimal_at_p0": True,
            "minimal_at_p1": True,
        },
    )


def hom_cohomology_dim(steps, n: Module, i: int, bound: int | None = None) -> int:
    """dim H^i of Hom(X_•, n) for the ``steps`` of a :func:`resolution`, i >= 1.

    H^i = dim Hom(X_i, n) - rank δ_{i+1} - rank δ_i, where δ_t: Hom(X_{t-1}, n)
    -> Hom(X_t, n) precomposes d_t, so rank δ_t = dim Hom(X_t, n) less
    :func:`precompose_corank` of d_t (which raises :class:`ValidationError`
    when the composites leave Hom(X_t, n)).  Steps are drawn up to X_{i+1} and
    stop at the first zero term; needing X_t for t > max(bound, 1) raises
    :class:`DomainError`.
    """
    terms: list[Module] = []
    diffs: list[ModuleMap] = []
    for t, (approx, d) in enumerate(steps):
        terms.append(approx.source)
        diffs.append(d)
        if t == i + 1 or approx.source.dim == 0:
            break
        if bound is not None and t + 1 > max(bound, 1):
            raise DomainError(f"projective resolution exceeded length bound {bound}")
    if i >= len(terms) or not hom_dim(terms[i], n):
        return 0

    def delta_rank(t: int) -> int:
        if t >= len(terms):
            return 0
        return hom_dim(terms[t], n) - precompose_corank(diffs[t], n)

    return hom_dim(terms[i], n) - delta_rank(i + 1) - delta_rank(i)


def ext_dim(m: Module, n: Module, i: int, bound: int = 10) -> int:
    """dim Ext^i(m, n) from a minimal projective resolution of m."""
    if i < 1:
        raise ValidationError("ext_dim needs i >= 1")
    return hom_cohomology_dim(resolution(m, _cover_map), n, i, bound)


# ---------------------------------------------------------------------------
# AR translate
# ---------------------------------------------------------------------------


def _hom_to_regular_as_op_module(p: Module) -> tuple[Module, list[ModuleMap]]:
    """Hom_A(p, A) as a left module over A^op, with its Hom basis."""
    alg = p.algebra
    basis = hom_space(p, regular_module(alg))
    # (a · f)(x) = f(x) · a — right multiplication on values; A^op has A's labels
    moves = {lbl: alg.right_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)}
    return hom_module(basis, opposite_algebra(alg), moves, on_values=True), basis


def ar_translate(m: Module) -> Module:
    """tau(m) = D Tr(m) via the minimal projective presentation."""
    alg = m.algebra
    pres = minimal_projective_presentation(m)
    hom0, basis0 = _hom_to_regular_as_op_module(pres.map.target)
    hom1, basis1 = _hom_to_regular_as_op_module(pres.map.source)
    if hom1.dim == 0:
        return zero_module(alg)
    # Hom(sigma, A): Hom(P_0, A) -> Hom(P_1, A), f -> f ∘ sigma
    if hom0.dim == 0:
        tr = hom1
    else:
        x = hom_coordinates(basis1, [b.matrix.mul(pres.map.matrix) for b in basis0])
        tr, _proj = cokernel(ModuleMap(hom0, hom1, x))
    # dual over the opposite: left A-module with rho(b) = rho_Tr(b)^T
    action = {lbl: tr.action[lbl].transpose() for lbl in tr.algebra.labels}
    # tr.algebra is A^op with the same labels as A
    return Module(alg, tr.dim, action)


# ---------------------------------------------------------------------------
# Tensor functors
# ---------------------------------------------------------------------------


@memoized
def tensor_over_algebra(n: Bimodule, y: Module) -> tuple[Module, dict]:
    """N ⊗_B Y with the induced left action of N's left algebra, and the
    coordinate ``projection`` from N ⊗_k Y with a ``section``.

    The pair is memoized on ``n`` per module: every caller gets the same
    objects, and no caller may mutate them."""
    B = n.right_alg
    if not same_algebra(y.algebra, B):
        raise ValidationError("module is not over the bimodule's right algebra")
    A = n.left_alg
    f = A.field
    dn, dy = n.dim, y.dim
    big = dn * dy
    if big == 0:
        z = zero_module(A)
        return z, {"projection": Matrix.zeros(f, 0, big), "section": Matrix.zeros(f, big, 0)}
    # the relations n·b ⊗ y - n ⊗ b·y, one per column of R_b ⊗ I - I ⊗ rho_y(b)
    ident_n, ident_y = Matrix.identity(f, dn), Matrix.identity(f, dy)
    rel_rows = [
        row
        for lbl in B.labels
        for row in (n.right_action[lbl].kron(ident_y) - ident_n.kron(y.action[lbl])).transpose().data
    ]
    rel = row_space_basis(rel_rows, f, big)
    proj, _keep = quotient_map(rel, big)
    q = proj.nrows
    section = solve(proj, Matrix.identity(f, q))
    if section is None:
        raise ValidationError("tensor quotient has no section")
    bigs = [n.left_action[lbl].kron(ident_y) for lbl in A.labels]
    mod = Module(A, q, dict(zip(A.labels, conjugate(proj, bigs, section))))
    return mod, {"projection": proj, "section": section}


def tensor_map(n: Bimodule, phi: ModuleMap) -> ModuleMap:
    """N ⊗_B phi, as projection · (I ⊗ phi) · section between the tensor
    modules of phi's source and target."""
    src, sdata = tensor_over_algebra(n, phi.source)
    tgt, tdata = tensor_over_algebra(n, phi.target)
    big = Matrix.identity(n.left_alg.field, n.dim).kron(phi.matrix)
    return ModuleMap(src, tgt, tdata["projection"].mul(big).mul(sdata["section"]))


def tensor_over_field(m: Module, s: Module, tensor_alg: Algebra | None = None) -> Module:
    """m ⊗_k s as a module over the tensor product algebra.

    Tensor is additive in each factor, so the product records (see
    :func:`summands`) x ⊗ y for every summand x recorded for m (or m) and
    y recorded for s (or s), at positions {i·dim s + j : i in pos(x), j in
    pos(y)}, a tuple.  Zero blocks are left out, so a product with a zero
    factor records nothing, and a product of two unrecorded modules is no
    summand of itself."""
    A, B = m.algebra, s.algebra
    if A.field != B.field:
        raise ValidationError("tensor factors live over different fields")
    if tensor_alg is None:
        tensor_alg, _ = derive_algebra(A, "tensor", b=B)
    action = {}
    for i, la in enumerate(A.labels):
        for j, lb in enumerate(B.labels):
            action[f"{la}(x){lb}"] = m.action[la].kron(s.action[lb])
    whole = Module(tensor_alg, m.dim * s.dim, action)
    xs, ys = summands(m), summands(s)
    if len(xs) * len(ys) > 1:
        _record(whole, [
            (tensor_over_field(x, y, tensor_alg), tuple(i * s.dim + j for i in px for j in py))
            for x, px in xs for y, py in ys if x.dim and y.dim
        ])
    return whole


# ---------------------------------------------------------------------------
# Minimal polynomial and factor-driven splitting
# ---------------------------------------------------------------------------


def _split_from_endomorphism(m: Module, emat: Matrix) -> tuple[Matrix, Matrix] | None:
    """If the endomorphism's minimal polynomial has >= 2 coprime primary
    parts g and h, return column bases of ker g(e) and ker h(e), which split
    the module; None when it is a power of one irreducible."""
    # imported on first use: no CLI command factors, and an interpreter
    # without cached bytecode compiles every module it imports
    from .polynomials import factor, mul, power

    f = m.algebra.field
    factors = factor(min_poly(emat), f)
    if len(factors) < 2:
        return None
    g = power(*factors[0], f)
    h = [f.one()]
    for fac, mult in factors[1:]:
        h = mul(h, power(fac, mult, f), f)
    kg, kh = nullspace(eval_poly(g, emat)), nullspace(eval_poly(h, emat))
    if not kg.ncols or not kh.ncols or kg.ncols + kh.ncols != m.dim:
        raise ValidationError("coprime factors of a minimal polynomial failed to split the module")
    return kg, kh


def _structured_candidates(field: FieldSpec, h: int):
    """Single basis elements, then pairwise sums and differences."""
    one, zero = field.one(), field.zero()
    units = [tuple(one if k == i else zero for k in range(h)) for i in range(h)]
    yield from units
    for i, j in itertools.combinations(range(h), 2):
        yield tuple(map(field.add, units[i], units[j]))
        yield tuple(map(field.sub, units[i], units[j]))


def _fitting_split(m: Module, emat: Matrix) -> tuple[Matrix, Matrix] | None:
    """ker(e^dim) ⊕ im(e^dim); nontrivial iff e is neither nilpotent nor
    invertible."""
    f = m.algebra.field
    stable = emat.power(m.dim)
    cols_k = nullspace(stable)
    img_rows = row_space_basis(stable.transpose().data, f, m.dim)
    if not cols_k.ncols or img_rows.nrows == 0:
        return None
    cols_i = img_rows.transpose()
    if cols_k.ncols + cols_i.ncols != m.dim:
        raise ValidationError("Fitting decomposition dimensions are inconsistent")
    return cols_k, cols_i


def _trace_form_certifies_local(mats: list[Matrix]) -> bool:
    """Characteristic-zero locality certificate for End(M).

    Over the rationals the radical of End(M) equals the radical of the trace
    form (a, b) -> tr(ab) of the faithful action on M.  We recompute that
    radical, certify directly that it is a nilpotent ideal, and conclude
    locality when the quotient is one-dimensional.
    """
    f, h, d = mats[0].field, len(mats), mats[0].nrows
    trace = [[functools.reduce(f.add, [row[i] for i, row in enumerate(a.mul(b).data)], f.zero()) for b in mats] for a in mats]
    nullb = nullspace(Matrix(f, trace, h, h))
    if h - nullb.ncols != 1:
        return False
    rad_mats = [_combination(v, mats) for v in nullb.transpose().data]

    rad_flat = row_space_basis([_flat(mm) for mm in rad_mats], f, d * d)
    # two-sided ideal inside End
    for n in rad_mats:
        for b in mats:
            for prod in (n.mul(b), b.mul(n)):
                if any(reduce_mod_row_space(_flat(prod), rad_flat)):
                    return False
    # nilpotency of the whole subspace: power chain must hit zero
    current = list(rad_mats)
    for _ in range(d + 1):
        if not current:
            break
        nxt_rows = []
        for x in current:
            for n in rad_mats:
                prod = x.mul(n)
                if not prod.is_zero():
                    nxt_rows.append(_flat(prod))
        basis = row_space_basis(nxt_rows, f, d * d)
        current = [Matrix(f, [row[i * d : (i + 1) * d] for i in range(d)], d, d) for row in basis.data]
    return not current


def _combination(coeff, mats: list[Matrix]) -> Matrix:
    """Σ c·M over the nonzero coefficients c, for ``mats`` of one shape."""
    out = Matrix.zeros(mats[0].field, mats[0].nrows, mats[0].ncols)
    for c, mat in zip(coeff, mats):
        if c != 0:
            out = out + mat.scale(c)
    return out


def _split_pair(sub: Module) -> tuple[Matrix, Matrix] | None:
    """Column bases of two complementary summands of ``sub``, or None when
    End(sub) is certified local (see :func:`decompose`)."""
    f = sub.algebra.field
    endos = [e.matrix for e in hom_space(sub, sub)]
    h = len(endos)
    if h == 1:
        return None
    # exact pass: End is local iff every element is nilpotent or invertible;
    # a violator yields a nontrivial Fitting decomposition
    if f.kind == "prime" and f.p**h <= DECOMPOSE_BUDGET:
        for coeff in itertools.product(range(f.p), repeat=h):
            emat = _combination(coeff, endos)
            pair = None if invert(emat) is not None else _fitting_split(sub, emat)
            if pair is not None:
                return pair
        return None
    # End too large to scan, or Q: coprime-factor splits from structured
    # candidates
    for coeff in _structured_candidates(f, h):
        pair = _split_from_endomorphism(sub, _combination(coeff, endos))
        if pair is not None:
            return pair
    if f.kind == "rational" and _trace_form_certifies_local(endos):
        return None
    raise UndecidedError(
        f"decomposition budget exhausted on a dim-{sub.dim} module with End of dim {h}"
    )


def decompose(m: Module) -> list[tuple[Module, int, list[tuple[ModuleMap, ModuleMap]]]]:
    """Split into indecomposable summands with explicit splitting maps.

    Returns ``[(part, multiplicity, [(injection, projection), ...])]`` where
    the maps run part -> m and m -> part for each copy, and
    sum(inj ∘ proj) = id_m (verified).  Indecomposability of each part is
    certified by a local End: over a finite field by scanning all of End
    whenever it has at most ``DECOMPOSE_BUDGET`` elements (every
    endomorphism nilpotent or invertible), and over Q by the trace form.
    Larger End rings over F_p, and End rings over Q, are first split by
    factoring minimal polynomials of structured candidates.  This is the one
    search here that can fail: when it finds no split and no certificate
    applies, :class:`UndecidedError` is raised rather than an unverified
    split returned.
    """
    out = []
    for rep, mult, pairs in _decomposition(m):
        rep = m if rep is None else rep
        maps = [(ModuleMap(rep, m, inj, check=False), ModuleMap(m, rep, proj, check=False)) for inj, proj in pairs]
        out.append((rep, mult, maps))
    return out


@memoized
def _decomposition(m: Module) -> list[tuple[Module, int, list[tuple[Matrix, Matrix]]]]:
    """:func:`decompose` with each splitting map as its checked matrix, and
    None for a part that is ``m`` itself.  The memo on ``m`` then refers to
    nothing that refers to ``m``, so ``m`` and its memo form no reference
    cycle and reference counting frees them."""
    alg = m.algebra
    f = alg.field
    if m.dim == 0:
        return []
    # (columns in m, summand) pairs, split depth first with the first part on
    # top, so the leaves come in the order of a recursive split
    leaves: list[tuple[Matrix, Module]] = []
    stack = [(Matrix.identity(f, m.dim), m)]
    while stack:
        cols, sub = stack.pop()
        pair = _split_pair(sub)
        if pair is None:
            leaves.append((cols, sub))
            continue
        for part_cols in reversed(pair):
            stack.append((cols.mul(part_cols), submodule(sub, part_cols)[0]))
    leaves.sort(key=lambda t: (t[1].dim, t[1].encode()))
    # group by isomorphism; each copy keeps its columns and its witness from
    # the group's representative (None for the representative itself)
    groups: list[tuple[Module, list[tuple[Matrix, Matrix | None]]]] = []
    for cols, sub in leaves:
        for rep, copies in groups:
            witness = indecomposable_iso(rep, sub)
            if witness is not None:
                copies.append((cols, witness.matrix))
                break
        else:
            groups.append((sub, [(cols, None)]))
    # assemble splitting maps: S = [cols_1 | ... | cols_k] is invertible
    S_inv = invert(Matrix.hstack([cols for _, copies in groups for cols, _ in copies]))
    if S_inv is None:
        raise ValidationError("decomposition columns failed to assemble an isomorphism")
    out = []
    offset = 0
    total = Matrix.zeros(f, m.dim, m.dim)
    for rep, copies in groups:
        pairs = []
        for cols, w in copies:
            proj = Matrix(f, S_inv.data[offset : offset + rep.dim], rep.dim, m.dim)
            offset += rep.dim
            if w is not None:
                cols, proj = cols.mul(w), invert(w).mul(proj)
            _check_commutes(rep, m, [cols])
            _check_commutes(m, rep, [proj])
            pairs.append((cols, proj))
            total = total + cols.mul(proj)
        out.append((None if rep is m else rep, len(pairs), pairs))
    if total != Matrix.identity(f, m.dim):
        raise ValidationError("splitting maps do not sum to the identity")
    return out


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


def indecomposable_iso(x: Module, y: Module) -> ModuleMap | None:
    """An isomorphism x -> y of indecomposable modules, or None.

    For indecomposable X and Y the maps X -> Y that are not isomorphisms form
    the subspace rad(X, Y) of Hom(X, Y) (Auslander–Reiten–Smalø,
    *Representation Theory of Artin Algebras*).  When X ≅ Y that subspace is
    proper, so some basis map lies outside it: X ≅ Y exactly when a basis map
    of Hom(X, Y) is invertible, and the first one is returned.  Both modules
    must be certified indecomposable, as the parts of :func:`decompose` are.
    """
    if x.dim != y.dim:
        return None
    return next((h for h in hom_space(x, y) if h.is_isomorphism()), None)


def is_isomorphic(m: Module, n: Module) -> ModuleMap | None:
    """An isomorphism m -> n, or None when the modules are not isomorphic.

    When ``m is n`` the identity is returned, with nothing solved, and an
    invertible basis map of Hom(m, n) is returned at once.  Otherwise both
    modules are split by :func:`decompose`; by Krull–Schmidt m ≅ n exactly
    when each summand class of m matches a class of n of the same
    multiplicity, decided by :func:`indecomposable_iso`.  The witness
    Σ inj_n ∘ w ∘ proj_m is confirmed invertible.  Raises
    :class:`UndecidedError` only when :func:`decompose` does.
    """
    if m is n:
        return ModuleMap(m, m, Matrix.identity(m.algebra.field, m.dim), check=False)
    if not same_algebra(m.algebra, n.algebra):
        raise ValidationError("isomorphism test needs modules over the same algebra")
    if m.dim != n.dim:
        return None
    f = m.algebra.field
    if m.dim == 0:
        return ModuleMap(m, n, Matrix.zeros(f, 0, 0), check=False)
    if m.dimension_vector() != n.dimension_vector():
        return None
    basis = hom_space(m, n)
    witness = next((h for h in basis if h.is_isomorphism()), None)
    if witness is not None or not basis:
        return witness
    # the classes of n are pairwise non-isomorphic, so each class of m
    # matches at most one of them
    classes_n = decompose(n)
    total = Matrix.zeros(f, n.dim, m.dim)
    for part, mult, maps_m in decompose(m):
        for rep, mult_n, maps_n in classes_n:
            w = indecomposable_iso(part, rep) if mult_n == mult else None
            if w is not None:
                break
        else:
            return None
        for (_, proj), (inj, _) in zip(maps_m, maps_n):
            total = total + inj.matrix.mul(w.matrix).mul(proj.matrix)
    if invert(total) is None:
        raise ValidationError("matched summands failed to assemble an isomorphism")
    return ModuleMap(m, n, total, check=False)


# ---------------------------------------------------------------------------
# Enumeration of indecomposables
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """All tuples of non-negative ints of length `parts` summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _support_connected(total: int, gen_blocks, zero) -> bool:
    """Whether the union of the generator supports links every basis index.
    A disconnected support graph splits the candidate into a direct sum along
    coordinate components, so only connected candidates can assemble into
    indecomposable modules of dimension > 1."""
    if total <= 1:
        return True
    parent = list(range(total))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for block in gen_blocks:
        for i, row in enumerate(block.data):
            for j, entry in enumerate(row):
                if entry != zero:
                    ra, rb = find(i), find(j)
                    if ra != rb:
                        parent[ra] = rb
    root = find(0)
    return all(find(i) == root for i in range(1, total))


def _partitions(n: int):
    """Partitions of ``n`` as non-increasing tuples, largest part first."""

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    if n == 0:
        yield ()
    else:
        yield from rec(n, n)


def _jordan_nilpotent(f, size: int, partition) -> Matrix:
    """Nilpotent matrix in Jordan form with the given block sizes."""
    mat = Matrix.zeros(f, size, size)
    pos = 0
    for part in partition:
        for i in range(part - 1):
            mat.data[pos + i][pos + i + 1] = f.one()
        pos += part
    return mat


def _rank_normal(f, rows: int, cols: int, rank: int) -> Matrix:
    mat = Matrix.zeros(f, rows, cols)
    for i in range(rank):
        mat.data[i][i] = f.one()
    return mat


def _canonical_slot(rad_seeds, slot_shapes, f):
    """Pick one generator slot whose block may be fixed in canonical form.

    Any module is isomorphic to one where a chosen loop block is in nilpotent
    Jordan form (radical generators act nilpotently) or a chosen cross-edge
    block is in rank normal form; the induced base change on the other blocks
    is absorbed by their full enumeration.  Returns ``(index, forms)`` or
    ``(None, None)`` when there is nothing to canonicalise."""
    cells = [r * c for r, c in slot_shapes]
    if not rad_seeds or max(cells, default=0) == 0:
        return None, None
    idx = max(range(len(rad_seeds)), key=lambda t: cells[t])
    _name, _vec, (u, w) = rad_seeds[idx]
    rows, cols = slot_shapes[idx]
    if u == w:
        forms = [_jordan_nilpotent(f, rows, part) for part in _partitions(rows)]
    else:
        forms = [_rank_normal(f, rows, cols, k) for k in range(min(rows, cols) + 1)]
    return idx, forms


@memoized
def enumerate_indecomposables(alg: Algebra, dim_bound: int = 3) -> list[Module]:
    """All indecomposable modules of total dimension <= dim_bound, up to
    isomorphism, in deterministic order; memoized on the algebra per bound."""
    if alg.field.kind != "prime":
        raise DomainError("enumeration requires finite field")
    f = alg.field
    gen = alg.generating_set()
    idem_labels = [lbl for lbl, _ in alg.idempotents]
    rad_seeds = gen.radical_seeds()
    found: list[Module] = []
    total_fillings = 0
    for total in range(1, dim_bound + 1):
        for dims in _compositions(total, len(idem_labels)):
            dim_of = dict(zip(idem_labels, dims))
            blocks = {}
            start = 0
            for lbl in idem_labels:
                blocks[lbl] = (start, start + dim_of[lbl])
                start += dim_of[lbl]
            slot_shapes = [(dim_of[u], dim_of[w]) for _name, _vec, (u, w) in rad_seeds]
            canon_idx, canon_forms = _canonical_slot(rad_seeds, slot_shapes, f)
            free_cells = sum(
                r * c for t, (r, c) in enumerate(slot_shapes) if t != canon_idx
            )
            count = (len(canon_forms) if canon_forms else 1) * f.p**free_cells
            total_fillings += count
            if total_fillings > ENUMERATION_BUDGET:
                raise DomainError(
                    f"enumeration budget exceeded at total dimension {total} "
                    f"(found {len(found)} indecomposables so far)"
                )
            for canon_block in canon_forms if canon_forms else [None]:
                for filling in itertools.product(range(f.p), repeat=free_cells):
                    pos = 0
                    ok_blocks = {}
                    for t, ((name, _vec, (u, w)), (r, c)) in enumerate(
                        zip(rad_seeds, slot_shapes)
                    ):
                        block = Matrix.zeros(f, total, total)
                        r0 = blocks[u][0]
                        c0 = blocks[w][0]
                        if t == canon_idx:
                            for ii in range(r):
                                for jj in range(c):
                                    block.data[r0 + ii][c0 + jj] = canon_block.data[ii][jj]
                        else:
                            for ii in range(r):
                                for jj in range(c):
                                    block.data[r0 + ii][c0 + jj] = f.coerce(filling[pos])
                                    pos += 1
                        ok_blocks[name] = block
                    if not _support_connected(total, ok_blocks.values(), f.zero()):
                        continue
                    mod = _module_from_generator_blocks(alg, gen, blocks, total, ok_blocks)
                    if mod is None:
                        continue
                    parts = decompose(mod)
                    if len(parts) != 1 or parts[0][1] != 1:
                        continue
                    if any(indecomposable_iso(kept, mod) is not None for kept in found):
                        continue
                    found.append(mod)
    found.sort(key=lambda mm: (mm.dim, mm.encode()))
    return found


def _module_from_generator_blocks(
    alg: Algebra, gen, blocks: dict[str, tuple[int, int]], total: int, gen_mats: dict[str, Matrix]
) -> Module | None:
    """Assemble full action matrices from generator images; None if invalid."""
    f = alg.field
    seed_mats: list[Matrix] = []
    for _name, _vec, (u, _w) in gen.seeds[: gen.n_idempotents]:
        mat = Matrix.zeros(f, total, total)
        s0, s1 = blocks[u]
        for i in range(s0, s1):
            mat.data[i][i] = f.one()
        seed_mats.append(mat)
    for name, _vec, _blk in gen.radical_seeds():
        seed_mats.append(gen_mats[name])
    word_mats = [functools.reduce(Matrix.mul, [seed_mats[idx] for idx in word]) for word in gen.words]
    action = {lbl: _combination(coeffs, word_mats) for lbl, coeffs in zip(alg.labels, zip(*gen.expansion.data))}
    try:
        return Module(alg, total, action)
    except ValidationError:
        return None

