"""Finite-dimensional algebras: quiver compilation and derived constructions.

An :class:`Algebra` is a basis-indexed multiplication table over an exact
field together with a distinguished complete set of orthogonal primitive
idempotents and a certified radical.  Every constructor runs the same
certification battery, so an Algebra in hand is always a proof-carrying
object: associativity, unit, idempotent axioms, and the radical axioms
(two-sided ideal, nilpotent, split one-dimensional corners modulo it) have
all been checked exhaustively on basis elements.

Conventions, fixed once for the whole package:

* Paths are written in application order: ``["a", "b"]`` means "a first,
  then b", which requires ``target(a) == source(b)``.
* The algebra product ``x * y`` applies ``y`` first, then ``x`` (function
  composition order), so for left modules ``rho(x*y) == rho(x) @ rho(y)``.
  Concretely ``mult(path p, path q) == concat(q, p)``.
* An arrow ``a: u -> v`` satisfies ``a == e_v * a * e_u``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field as dc_field

from .exactlinalg import (
    ExactError,
    FieldSpec,
    Matrix,
    quotient_map,
    reduce_mod_row_space,
    row_space_basis,
    solve,
)


class ValidationError(ExactError):
    """Malformed input data (bad quiver, bad module file, shape errors)."""


class DomainError(ExactError):
    """Structurally valid input outside the supported domain (non-admissible
    relations, dimension not certified finite, non-split simples, ...)."""


PATH_BUDGET = 200_000


def memoized(fn):
    """Derive ``fn(owner, *args, **kwargs)`` once per owner and arguments.

    The value lives in ``owner._memo`` for the owner's lifetime.  Modules are
    interned by content over one algebra object, so a module built again with
    equal content is the same owner and reads the same values; a separately
    built equal algebra, and every module over it, derives its own.  Defaults
    are bound first, so ``f(a)`` and ``f(a, default)`` share an entry;
    arguments must be hashable.  Owners are immutable, so ``fn`` must read no
    global that something mutates.  The value is shared by every caller, and
    no caller may mutate it.
    """
    signature = inspect.signature(fn)
    bare = (fn, *(p.default for p in list(signature.parameters.values())[1:]))

    @functools.wraps(fn)
    def wrapper(owner, *args, **kwargs):
        key = bare
        if args or kwargs:
            call = signature.bind(owner, *args, **kwargs)
            call.apply_defaults()
            key = (fn, *call.args[1:])
        if key not in owner._memo:
            owner._memo[key] = fn(owner, *args, **kwargs)
        return owner._memo[key]

    return wrapper


# ---------------------------------------------------------------------------
# Quiver presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass
class QuiverPresentation:
    """A quiver with admissible relations and a length bound.

    ``relations`` is a list of linear combinations; each combination is a
    list of ``(coeff, path)`` pairs where ``path`` is a list of arrow names
    in application order.  All paths in one relation must be parallel
    (common source, common target) and of length >= 2.
    """

    vertices: list[str]
    arrows: list[Arrow]
    relations: list[list[tuple[object, list[str]]]]
    field: FieldSpec
    length_bound: int = 8

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        names = set(self.vertices)
        seen = set()
        for a in self.arrows:
            if a.name in seen or a.name in names:
                raise ValidationError(f"duplicate or vertex-colliding arrow name {a.name!r}")
            seen.add(a.name)
            if a.source not in names or a.target not in names:
                raise ValidationError(f"arrow {a.name!r} endpoint not a declared vertex")
        if self.length_bound < 1:
            raise ValidationError("length_bound must be positive")
        arrow_by_name = {a.name: a for a in self.arrows}
        for rel in self.relations:
            if not rel:
                raise ValidationError("empty relation")
            endpoints = set()
            for coeff, path in rel:
                if len(path) < 2:
                    raise ValidationError(f"relation path {path} has length < 2")
                for nm in path:
                    if nm not in arrow_by_name:
                        raise ValidationError(f"relation uses undeclared arrow {nm!r}")
                for x, y in zip(path, path[1:]):
                    if arrow_by_name[x].target != arrow_by_name[y].source:
                        raise ValidationError(f"relation path {path} is not composable at {x!r}->{y!r}")
                endpoints.add((arrow_by_name[path[0]].source, arrow_by_name[path[-1]].target))
            if len(endpoints) != 1:
                raise ValidationError("relation mixes paths with different endpoints")


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------


class Algebra:
    """Finite-dimensional associative unital algebra with distinguished data.

    ``constants[i][j]`` is the coefficient vector (length ``dim``) of the
    product ``b_i * b_j`` in the basis.  ``idempotents`` is the complete set
    of orthogonal primitive idempotents, each a ``(label, coefficients)``
    pair.  ``radical_rows`` is the canonical row basis of the radical.
    """

    def __init__(
        self,
        field: FieldSpec,
        labels: list[str],
        constants: list[list[list]],
        idempotents: list[tuple[str, list]],
        radical_rows: Matrix,
        provenance: str,
    ):
        self.field = field
        self.dim = len(labels)
        self.labels = list(labels)
        self.constants = constants
        self.idempotents = [(lbl, list(vec)) for lbl, vec in idempotents]
        self.radical_rows = radical_rows
        self.provenance = provenance
        self._index = {lbl: i for i, lbl in enumerate(labels)}
        if len(self._index) != self.dim:
            raise ValidationError("duplicate basis labels")
        self._memo: dict = {}
        self._certify()

    # -- structure ----------------------------------------------------------
    def basis_vector(self, i: int) -> list:
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def index_of(self, label: str) -> int:
        if label not in self._index:
            raise ValidationError(f"unknown basis label {label!r}")
        return self._index[label]

    def multiply(self, x: list, y: list) -> list:
        """Product of two coefficient vectors (x applied after y)."""
        f = self.field
        out = [f.zero()] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.constants[i]
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = f.mul(xi, yj)
                for m, cm in enumerate(row[j]):
                    if cm != 0:
                        out[m] = f.add(out[m], f.mul(c, cm))
        return out

    def unit(self) -> list:
        f = self.field
        out = [f.zero()] * self.dim
        for _, vec in self.idempotents:
            out = [f.add(a, b) for a, b in zip(out, vec)]
        return out

    def idempotent_vector(self, label: str) -> list:
        for lbl, vec in self.idempotents:
            if lbl == label:
                return list(vec)
        raise ValidationError(f"unknown idempotent {label!r}")

    def left_mult_matrix(self, x: list) -> Matrix:
        """Matrix of left multiplication by x on the regular module (columns
        are x * b_j)."""
        cols = [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(self.field, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)], self.dim, self.dim)

    def right_mult_matrix(self, x: list) -> Matrix:
        cols = [self.multiply(self.basis_vector(j), x) for j in range(self.dim)]
        return Matrix(self.field, [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)], self.dim, self.dim)

    def radical_power_rows(self, n: int) -> Matrix:
        """Canonical row basis of radical^n."""
        current = self.radical_rows
        for _ in range(n - 1):
            if current.nrows == 0:
                return current
            gens = []
            for r in current.data:
                for s in self.radical_rows.data:
                    gens.append(self.multiply(list(r), list(s)))
            current = row_space_basis(gens, self.field, self.dim)
        return current

    @memoized
    def generating_set(self) -> "GeneratorData":
        """Idempotents plus Peirce-pure radical lifts that generate the
        algebra, with an expansion of every basis element as a linear
        combination of products of generators.  Certified by closure
        reaching the full dimension."""
        return _compute_generating_set(self)

    def content_hash(self) -> str:
        payload = {
            "field": {"kind": self.field.kind, "p": self.field.p},
            "labels": self.labels,
            "constants": [[[self.field.to_str(c) for c in vec] for vec in row] for row in self.constants],
            "idempotents": [[lbl, [self.field.to_str(c) for c in vec]] for lbl, vec in self.idempotents],
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    # -- certification --------------------------------------------------------
    def _certify(self):
        f = self.field
        d = self.dim
        if d == 0:
            raise ValidationError("zero-dimensional algebra")
        if len(self.constants) != d or any(len(row) != d for row in self.constants) or any(
            len(vec) != d for row in self.constants for vec in row
        ):
            raise ValidationError("structure constant table has wrong shape")
        # Associativity on all basis triples, using sparsity of the table.
        nz = [[[(m, c) for m, c in enumerate(vec) if c != 0] for vec in row] for row in self.constants]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    left = {}
                    for m, c in nz[i][j]:
                        for t, c2 in nz[m][k]:
                            left[t] = f.add(left.get(t, f.zero()), f.mul(c, c2))
                    right = {}
                    for m, c in nz[j][k]:
                        for t, c2 in nz[i][m]:
                            right[t] = f.add(right.get(t, f.zero()), f.mul(c, c2))
                    for t in set(left) | set(right):
                        if left.get(t, f.zero()) != right.get(t, f.zero()):
                            raise ValidationError(
                                f"associativity fails on basis triple ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                            )
        # Unit and idempotent axioms.
        if not self.idempotents:
            raise ValidationError("no distinguished idempotents")
        u = self.unit()
        for i in range(d):
            b = self.basis_vector(i)
            if self.multiply(u, b) != b or self.multiply(b, u) != b:
                raise ValidationError(f"sum of idempotents is not a unit (fails on {self.labels[i]})")
        for a, (la, va) in enumerate(self.idempotents):
            for b, (lb, vb) in enumerate(self.idempotents):
                prod = self.multiply(va, vb)
                expect = list(va) if a == b else [f.zero()] * d
                if prod != expect:
                    raise ValidationError(f"idempotents {la!r}, {lb!r} fail orthogonality/idempotency")
        # Radical: two-sided ideal.
        J = self.radical_rows
        for r in J.data:
            for i in range(d):
                b = self.basis_vector(i)
                left, right = self.multiply(b, list(r)), self.multiply(list(r), b)
                if any(reduce_mod_row_space(left, J)) or any(reduce_mod_row_space(right, J)):
                    raise ValidationError("radical candidate is not a two-sided ideal")
        # Radical: nilpotent.
        power = J
        steps = 0
        while power.nrows > 0:
            steps += 1
            if steps > d:
                raise ValidationError("radical candidate is not nilpotent")
            gens = [self.multiply(list(r), list(s)) for r in power.data for s in J.data]
            power = row_space_basis(gens, f, d)
        # Quotient modulo the radical is split semisimple with one-dimensional
        # corners at the distinguished idempotents: together with nilpotency
        # this certifies that the candidate IS the radical and that each
        # idempotent is primitive.
        if d - J.nrows != len(self.idempotents):
            raise ValidationError(
                f"dim mod radical is {d - J.nrows} but there are {len(self.idempotents)} idempotents"
            )
        images = []
        for la, va in self.idempotents:
            image = reduce_mod_row_space(va, J)
            if not any(image):
                raise ValidationError(f"idempotent {la!r} lies in the radical candidate")
            images.append(image)
        if row_space_basis(images, f, d).nrows != len(images):
            raise ValidationError("idempotent images modulo the radical are dependent")
        for i in range(d):
            b = self.basis_vector(i)
            for a, (la, va) in enumerate(self.idempotents):
                for c, (lc, vc) in enumerate(self.idempotents):
                    w = self.multiply(va, self.multiply(b, vc))
                    red = reduce_mod_row_space(w, J)
                    if a == c:
                        # must be a scalar multiple of the image of e_a
                        span = row_space_basis([images[a]], f, d)
                        if any(reduce_mod_row_space(red, span)):
                            raise ValidationError(
                                f"corner at {la!r} is not one-dimensional modulo the radical"
                            )
                    elif any(x != 0 for x in red):
                        raise ValidationError(
                            f"off-diagonal component ({la!r},{lc!r}) survives modulo the radical"
                        )


def same_algebra(a: Algebra, b: Algebra) -> bool:
    """Whether two algebras are one object or have the same content."""
    return a is b or a.content_hash() == b.content_hash()


# ---------------------------------------------------------------------------
# Generating sets
# ---------------------------------------------------------------------------


@dataclass
class GeneratorData:
    """A generating set of an algebra with certified expansion data.

    ``seeds`` lists the generators: first the idempotents (tagged with their
    vertex label twice), then Peirce-pure radical generators tagged with
    (target vertex, source vertex) — a generator g with tag (u, w) satisfies
    g == e_u * g * e_w, so in a left module it maps the e_w-block into the
    e_u-block.  ``words`` expresses a spanning independent family as products
    of seeds (tuples of seed indices, product taken left to right in algebra
    order), and ``expansion`` holds the coordinates of each algebra basis
    element in that family: b_i = sum_t expansion[t][i] * value(words[t]).
    """

    seeds: list[tuple[str, list, tuple[str, str]]]  # (name, vector, (u, w))
    n_idempotents: int
    words: list[tuple[int, ...]]
    expansion: Matrix

    def radical_seeds(self) -> list[tuple[str, list, tuple[str, str]]]:
        return self.seeds[self.n_idempotents:]


def _compute_generating_set(a: Algebra) -> GeneratorData:
    f = a.field
    d = a.dim
    seeds: list[tuple[str, list, tuple[str, str]]] = []
    for lbl, vec in a.idempotents:
        seeds.append((lbl, list(vec), (lbl, lbl)))
    n_idem = len(seeds)
    # Lifts of a basis of rad/rad^2, split into Peirce components.
    j2 = a.radical_power_rows(2)
    picked_span = [list(r) for r in j2.data]
    lift_count = 0
    for r in a.radical_rows.data:
        span_now = row_space_basis(picked_span, f, d)
        if not any(reduce_mod_row_space(list(r), span_now)):
            continue
        picked_span.append(list(r))
        for lu, vu in a.idempotents:
            for lw, vw in a.idempotents:
                comp = a.multiply(vu, a.multiply(list(r), vw))
                if any(x != 0 for x in comp):
                    # reuse the parent label when the component is a basis vector
                    nz = [(jj, x) for jj, x in enumerate(comp) if x != 0]
                    if len(nz) == 1 and nz[0][1] == f.one():
                        name = a.labels[nz[0][0]]
                    else:
                        name = f"g{lift_count}[{lu}->{lw}]"
                    seeds.append((name, comp, (lu, lw)))
                    lift_count += 1
    # Closure under right multiplication by the radical seeds; tracked
    # vectors stay linearly independent, so expansion coordinates are unique.
    words: list[tuple[int, ...]] = []
    values: list[list] = []
    span_rows: list[list] = []

    def try_add(word: tuple[int, ...], value: list) -> bool:
        if not any(reduce_mod_row_space(value, row_space_basis(span_rows, f, d))):
            return False
        words.append(word)
        values.append(value)
        span_rows.append(value)
        return True

    for idx, (name, vec, _blk) in enumerate(seeds):
        try_add((idx,), list(vec))
    frontier = list(range(len(words)))
    while frontier:
        nxt = []
        for t in frontier:
            for gi in range(n_idem, len(seeds)):
                prod = a.multiply(values[t], seeds[gi][1])
                if any(x != 0 for x in prod) and try_add(words[t] + (gi,), prod):
                    nxt.append(len(words) - 1)
        frontier = nxt
    if len(words) != d:
        raise ValidationError(
            f"generating set closure reached dimension {len(words)} of {d}; "
            "distinguished idempotents plus radical lifts do not generate"
        )
    tracked = Matrix(f, [[values[t][i] for t in range(d)] for i in range(d)], d, d)
    expansion = solve(tracked, Matrix.identity(f, d))
    if expansion is None:
        raise ValidationError("tracked generator products are not independent")
    return GeneratorData(seeds, n_idem, words, expansion)


# ---------------------------------------------------------------------------
# Quiver compilation
# ---------------------------------------------------------------------------


def _enumerate_paths(q: QuiverPresentation, max_len: int) -> list[tuple]:
    """All paths of length <= max_len in deterministic order (length, lex).

    A path is a tuple: trivial paths are ("", vertex) sentinels represented
    as ("e", v); nontrivial paths are tuples of arrow names.
    """
    arrows_from: dict[str, list[Arrow]] = {v: [] for v in q.vertices}
    for a in sorted(q.arrows, key=lambda a: a.name):
        arrows_from[a.source].append(a)
    paths: list[tuple] = [("e", v) for v in sorted(q.vertices)]
    # BFS by length; each level kept sorted by arrow-name sequence
    level: list[tuple[tuple[str, ...], str]] = [((), v) for v in sorted(q.vertices)]
    for _ in range(max_len):
        nxt = []
        for names, end in level:
            for a in arrows_from[end]:
                nxt.append((names + (a.name,), a.target))
        nxt.sort(key=lambda t: t[0])
        for names, _end in nxt:
            paths.append(names)
        if len(paths) > PATH_BUDGET:
            raise DomainError(
                f"path budget exceeded: more than {PATH_BUDGET} paths of length <= {max_len}"
            )
        level = nxt
        if not nxt:
            break
    return paths


def _path_endpoints(arrow_by_name: dict[str, Arrow], path: tuple) -> tuple[str, str]:
    if path[0] == "e":
        return path[1], path[1]
    return arrow_by_name[path[0]].source, arrow_by_name[path[-1]].target


def compile_quiver_algebra(q: QuiverPresentation) -> Algebra:
    """Compile a quiver presentation into a certified Algebra.

    The basis consists of the paths that stay irreducible modulo the
    relations, in deterministic order (length, then lexicographic).  The
    finite-dimensionality certificate demands that every path of length
    exactly ``length_bound`` lies in the ideal generated by the relations;
    under the admissibility precondition this pins the compiled algebra
    exactly.  Inputs whose relation ideal is not admissible (contains no
    power of the arrow ideal) are outside the precondition and are rejected
    only when the certificate fails.
    """
    f = q.field
    L = q.length_bound
    paths = _enumerate_paths(q, L)  # all paths of length <= L
    pindex = {p: i for i, p in enumerate(paths)}
    n = len(paths)
    arrow_by_name = {a.name: a for a in q.arrows}

    def path_len(p: tuple) -> int:
        return 0 if p[0] == "e" else len(p)

    # Ideal generated by the relations inside the truncation at length L:
    # seed with the relation vectors, close under multiplication by arrows
    # on both sides (products that exceed the truncation vanish).
    gens: list[list] = []
    seeds: list[list] = []
    for rel in q.relations:
        vec = [f.zero()] * n
        for coeff, path in rel:
            c = f.coerce(coeff)
            key = tuple(path)
            if key not in pindex:
                # longer than the bound: already zero in the truncation
                continue
            vec[pindex[key]] = f.add(vec[pindex[key]], c)
        seeds.append(vec)
    basis_now = row_space_basis(seeds, f, n)
    changed = True
    while changed:
        changed = False
        new_gens = [list(r) for r in basis_now.data]
        for r in basis_now.data:
            for a in q.arrows:
                left = [f.zero()] * n   # a * r  (r first, then a)
                right = [f.zero()] * n  # r * a  (a first, then r)
                for i, c in enumerate(r):
                    if c == 0:
                        continue
                    p = paths[i]
                    # append a after p  (= a*p in algebra order)
                    src, tgt = _path_endpoints(arrow_by_name, p)
                    if tgt == a.source:
                        newp = (a.name,) if p[0] == "e" else p + (a.name,)
                        if len(newp) <= L:
                            j = pindex[newp]
                            left[j] = f.add(left[j], c)
                    # prepend a before p (= p*a in algebra order)
                    if a.target == src:
                        newp = (a.name,) if p[0] == "e" else (a.name,) + p
                        if len(newp) <= L:
                            j = pindex[newp]
                            right[j] = f.add(right[j], c)
                if any(x != 0 for x in left):
                    new_gens.append(left)
                if any(x != 0 for x in right):
                    new_gens.append(right)
        grown = row_space_basis(new_gens, f, n)
        if grown.nrows != basis_now.nrows:
            basis_now = grown
            changed = True
    ideal = basis_now

    # Finite-dimensionality certificate: every path of length exactly L dies.
    for p in paths:
        if path_len(p) == L:
            unit = [f.zero()] * n
            unit[pindex[p]] = f.one()
            if any(reduce_mod_row_space(unit, ideal)):
                raise DomainError(
                    f"dimension not certified finite within length_bound={L}: "
                    f"path {list(p)} survives the relations",
                    path=list(p),
                )

    # Quotient basis: non-pivot paths.
    pivots = set()
    for row in ideal.data:
        for j, x in enumerate(row):
            if x != 0:
                pivots.add(j)
                break
    basis_paths = [paths[j] for j in range(n) if j not in pivots]
    dim = len(basis_paths)
    bindex = {p: i for i, p in enumerate(basis_paths)}

    def reduce_to_basis(vec: list) -> list:
        red = reduce_mod_row_space(vec, ideal)
        out = [f.zero()] * dim
        for j, x in enumerate(red):
            if x != 0:
                out[bindex[paths[j]]] = x
        return out

    def label(p: tuple) -> str:
        return f"e{p[1]}" if p[0] == "e" else "*".join(p)

    labels = [label(p) for p in basis_paths]

    # Structure constants: b_i * b_j applies path j first, then path i,
    # so the concatenated word is (path j, then path i).
    constants = []
    for i, pi in enumerate(basis_paths):
        row = []
        si, ti = _path_endpoints(arrow_by_name, pi)
        for j, pj in enumerate(basis_paths):
            sj, tj = _path_endpoints(arrow_by_name, pj)
            if tj != si:
                row.append([f.zero()] * dim)
                continue
            if pi[0] == "e":
                word = pj
            elif pj[0] == "e":
                word = pi
            else:
                word = pj + pi
            if path_len(word) > L and word[0] != "e":
                row.append([f.zero()] * dim)
                continue
            vec = [f.zero()] * n
            vec[pindex[word]] = f.one()
            row.append(reduce_to_basis(vec))
        constants.append(row)

    idempotents = []
    for p in basis_paths:
        if p[0] == "e":
            vec = [f.zero()] * dim
            vec[bindex[p]] = f.one()
            idempotents.append((label(p), vec))
    if len(idempotents) != len(q.vertices):
        raise DomainError("a trivial path was absorbed by the relations; ideal is not admissible")

    # Radical: image of the arrow ideal = span of the nontrivial basis paths.
    rad_rows = row_space_basis(
        [[f.one() if i == bindex[p] else f.zero() for i in range(dim)] for p in basis_paths if p[0] != "e"],
        f,
        dim,
    )
    return Algebra(f, labels, constants, idempotents, rad_rows, "quiver")


# ---------------------------------------------------------------------------
# Derived algebras
# ---------------------------------------------------------------------------


def _labels_for_subspace(a: Algebra, rows: Matrix, prefix: str) -> list[str]:
    """Reuse the parent's labels when the subspace basis is unit vectors."""
    labels = []
    for idx, r in enumerate(rows.data):
        nz = [(j, x) for j, x in enumerate(r) if x != 0]
        if len(nz) == 1 and nz[0][1] == a.field.one():
            labels.append(a.labels[nz[0][0]])
        else:
            labels.append(f"{prefix}{idx}")
    return labels


def _constants_in_subspace(a: Algebra, rows: Matrix) -> list[list[list]]:
    """Structure constants of a subalgebra given by a canonical row basis."""
    f = a.field
    d = rows.nrows
    basis_mat_t = rows.transpose()  # columns are the subspace basis in A coords
    constants = []
    for i in range(d):
        row = []
        for j in range(d):
            prod = a.multiply(list(rows.data[i]), list(rows.data[j]))
            sol = solve(basis_mat_t, Matrix.column(f, prod))
            if sol is None:
                raise ValidationError("subspace is not closed under multiplication")
            row.append([sol.data[t][0] for t in range(d)])
        constants.append(row)
    return constants


def derive_algebra(a: Algebra, kind: str, *, e: list[str] | None = None, b: Algebra | None = None):
    """Derive a new algebra from ``a``.

    ``kind`` is one of ``opposite``, ``corner`` (with idempotent subset
    ``e``), ``quotient_idempotent_ideal`` (with ``e``), ``tensor`` (with
    second algebra ``b``).  Returns ``(algebra, structure_maps)`` where the
    structure maps record how the result sits relative to the inputs.
    """
    f = a.field
    if kind == "opposite":
        constants = [[a.constants[j][i] for j in range(a.dim)] for i in range(a.dim)]
        opp = Algebra(f, a.labels, constants, a.idempotents, a.radical_rows, "derived")
        return opp, {"kind": "opposite", "basis_map": Matrix.identity(f, a.dim)}

    if kind in ("corner", "quotient_idempotent_ideal"):
        if not e:
            raise ValidationError(f"{kind} requires a nonempty idempotent subset")
        known = [lbl for lbl, _ in a.idempotents]
        for lbl in e:
            if lbl not in known:
                raise ValidationError(f"{lbl!r} is not a distinguished idempotent (have {known})")
        evec = [f.zero()] * a.dim
        for lbl in e:
            evec = [f.add(x, y) for x, y in zip(evec, a.idempotent_vector(lbl))]

        if kind == "corner":
            gens = [a.multiply(evec, a.multiply(a.basis_vector(i), evec)) for i in range(a.dim)]
            rows = row_space_basis(gens, f, a.dim)
            labels = _labels_for_subspace(a, rows, "c")
            constants = _constants_in_subspace(a, rows)
            basis_mat_t = rows.transpose()
            idempotents = []
            for lbl in sorted(e, key=known.index):
                sol = solve(basis_mat_t, Matrix.column(f, a.idempotent_vector(lbl)))
                if sol is None:
                    raise ValidationError(f"idempotent {lbl!r} not inside its own corner")
                idempotents.append((lbl, [sol.data[t][0] for t in range(rows.nrows)]))
            rad_gens = []
            for r in a.radical_rows.data:
                w = a.multiply(evec, a.multiply(list(r), evec))
                sol = solve(basis_mat_t, Matrix.column(f, w))
                if sol is None:
                    raise ValidationError("corner of the radical escapes the corner subspace")
                rad_gens.append([sol.data[t][0] for t in range(rows.nrows)])
            rad_rows = row_space_basis(rad_gens, f, rows.nrows)
            corner = Algebra(f, labels, constants, idempotents, rad_rows, "derived")
            return corner, {"kind": "corner", "e": list(e), "inclusion": rows}

        # quotient by the two-sided ideal generated by e
        gens = []
        for i in range(a.dim):
            xi = a.basis_vector(i)
            for j in range(a.dim):
                gens.append(a.multiply(xi, a.multiply(evec, a.basis_vector(j))))
        ideal = row_space_basis(gens, f, a.dim)
        # idempotent-ideal property: J·J = J
        sq = row_space_basis(
            [a.multiply(list(r), list(s)) for r in ideal.data for s in ideal.data], f, a.dim
        )
        if sq.nrows != ideal.nrows:
            raise ValidationError("ideal generated by an idempotent is not idempotent; data corrupt")
        proj, keep = quotient_map(ideal, a.dim)
        qdim = proj.nrows
        if qdim == 0:
            raise DomainError("quotient by the idempotent ideal is the zero ring")
        labels = [a.labels[j] for j in keep]

        def project(vec: list) -> list:
            red = reduce_mod_row_space(vec, ideal)
            return [red[j] for j in keep]

        lift = {jj: kk for kk, jj in enumerate(keep)}
        constants = []
        for i in range(qdim):
            row = []
            bi = a.basis_vector(keep[i])
            for j in range(qdim):
                row.append(project(a.multiply(bi, a.basis_vector(keep[j]))))
            constants.append(row)
        idempotents = []
        for lbl, vec in a.idempotents:
            if lbl in e:
                continue
            img = project(vec)
            if all(x == 0 for x in img):
                raise DomainError(f"idempotent {lbl!r} dies in the quotient; distinguished set broken")
            idempotents.append((lbl, img))
        rad_rows = row_space_basis([project(list(r)) for r in a.radical_rows.data], f, qdim)
        quot = Algebra(f, labels, constants, idempotents, rad_rows, "derived")
        return quot, {"kind": "quotient_idempotent_ideal", "e": list(e), "projection": proj, "ideal": ideal}

    if kind == "tensor":
        if b is None:
            raise ValidationError("tensor derivation requires the second algebra")
        if a.field != b.field:
            raise ValidationError("tensor factors live over different fields")
        # Precondition (split simples) is part of each factor's certificate.
        da, db = a.dim, b.dim
        dim = da * db

        def pair(i: int, j: int) -> int:
            return i * db + j

        labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
        constants = [[None] * dim for _ in range(dim)]
        for i, j in itertools.product(range(da), range(db)):
            for k, l in itertools.product(range(da), range(db)):
                ca = a.constants[i][k]
                cb = b.constants[j][l]
                vec = [f.zero()] * dim
                for m, cm in enumerate(ca):
                    if cm == 0:
                        continue
                    for t, ct in enumerate(cb):
                        if ct != 0:
                            vec[pair(m, t)] = f.mul(cm, ct)
                constants[pair(i, j)][pair(k, l)] = vec
        idempotents = []
        for la, va in a.idempotents:
            for lb, vb in b.idempotents:
                vec = [f.zero()] * dim
                for m, cm in enumerate(va):
                    if cm == 0:
                        continue
                    for t, ct in enumerate(vb):
                        if ct != 0:
                            vec[pair(m, t)] = f.mul(cm, ct)
                idempotents.append((f"{la}(x){lb}", vec))
        rad_gens = []
        for r in a.radical_rows.data:
            for j in range(db):
                vec = [f.zero()] * dim
                for m, cm in enumerate(r):
                    if cm != 0:
                        vec[pair(m, j)] = cm
                rad_gens.append(vec)
        for i in range(da):
            for s in b.radical_rows.data:
                vec = [f.zero()] * dim
                for t, ct in enumerate(s):
                    if ct != 0:
                        vec[pair(i, t)] = ct
                rad_gens.append(vec)
        rad_rows = row_space_basis(rad_gens, f, dim)
        ten = Algebra(f, labels, constants, idempotents, rad_rows, "tensor")
        left_embed = Matrix.zeros(f, dim, da)
        right_embed = Matrix.zeros(f, dim, db)
        ub = b.unit()
        ua = a.unit()
        for i in range(da):
            for t, ct in enumerate(ub):
                if ct != 0:
                    left_embed.data[pair(i, t)][i] = ct
        for j in range(db):
            for m, cm in enumerate(ua):
                if cm != 0:
                    right_embed.data[pair(m, j)][j] = cm
        return ten, {"kind": "tensor", "left_embed": left_embed, "right_embed": right_embed, "pair_index": pair}

    raise ValidationError(f"unknown derivation kind {kind!r}")


@memoized
def opposite_algebra(a: Algebra) -> Algebra:
    """The opposite algebra of :func:`derive_algebra`, with ``a``'s labels."""
    return derive_algebra(a, "opposite")[0]


# ---------------------------------------------------------------------------
# Bimodules and triangular algebras
# ---------------------------------------------------------------------------


@dataclass
class Bimodule:
    """A (left_alg, right_alg)-bimodule given by explicit action matrices.

    ``left_action[label]`` is the matrix of the action of the left algebra's
    basis element on column vectors; ``right_action[label]`` likewise for the
    right algebra (matrices of a right action compose contravariantly).
    Induced modules ``N ⊗_B Y`` are memoized in ``_memo`` for the bimodule's
    lifetime, so nothing may change its fields after construction; a copy
    made with :func:`dataclasses.replace` starts with an empty memo.
    """

    left_alg: Algebra
    right_alg: Algebra
    dim: int
    left_action: dict[str, Matrix]
    right_action: dict[str, Matrix]
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A, B, n = self.left_alg, self.right_alg, self.dim
        f = A.field
        if B.field != f:
            raise ValidationError("bimodule algebras live over different fields")
        if set(self.left_action) != set(A.labels) or set(self.right_action) != set(B.labels):
            raise ValidationError("bimodule action keys must match algebra basis labels")
        for lbl, m in {**self.left_action, **self.right_action}.items():
            if m.nrows != n or m.ncols != n:
                raise ValidationError(f"action matrix for {lbl!r} is not {n}x{n}")
        if n == 0:
            return
        # left action is an algebra map, right action an anti-map, and the two commute
        def lmat(vec):
            out = Matrix.zeros(f, n, n)
            for i, c in enumerate(vec):
                if c != 0:
                    out = out + self.left_action[A.labels[i]].scale(c)
            return out

        def rmat(vec):
            out = Matrix.zeros(f, n, n)
            for i, c in enumerate(vec):
                if c != 0:
                    out = out + self.right_action[B.labels[i]].scale(c)
            return out

        ident = Matrix.identity(f, n)
        if lmat(A.unit()) != ident:
            raise ValidationError("left action does not send the unit to the identity")
        if rmat(B.unit()) != ident:
            raise ValidationError("right action does not send the unit to the identity")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = lmat(A.multiply(A.basis_vector(i), A.basis_vector(j)))
                if prod != self.left_action[A.labels[i]].mul(self.left_action[A.labels[j]]):
                    raise ValidationError("left action is not multiplicative")
        for i in range(B.dim):
            for j in range(B.dim):
                prod = rmat(B.multiply(B.basis_vector(i), B.basis_vector(j)))
                if prod != self.right_action[B.labels[j]].mul(self.right_action[B.labels[i]]):
                    raise ValidationError("right action is not multiplicative (contravariant)")
        for la in A.labels:
            for lb in B.labels:
                if self.left_action[la].mul(self.right_action[lb]) != self.right_action[lb].mul(self.left_action[la]):
                    raise ValidationError("left and right actions do not commute")

    @classmethod
    def zero(cls, left_alg: Algebra, right_alg: Algebra) -> "Bimodule":
        z = {lbl: Matrix.zeros(left_alg.field, 0, 0) for lbl in left_alg.labels}
        zr = {lbl: Matrix.zeros(left_alg.field, 0, 0) for lbl in right_alg.labels}
        return cls(left_alg, right_alg, 0, z, zr)

    @classmethod
    def regular(cls, alg: Algebra) -> "Bimodule":
        """The algebra as a bimodule over itself."""
        left = {lbl: alg.left_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)}
        right = {lbl: alg.right_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)}
        return cls(alg, alg, alg.dim, left, right)


@dataclass
class TriangularContext:
    """Upper triangular algebra [[A, N], [0, B]] with its embeddings.

    Values derived from the context, such as its functor images, are
    memoized in ``_memo`` for its lifetime, so nothing may change its fields
    after construction."""

    gamma: Algebra
    a: Algebra
    b: Algebra
    n: Bimodule
    a_offset: int  # A-basis occupies gamma coords [a_offset, a_offset + dim A)
    n_offset: int
    b_offset: int
    hypothesis_flags: dict = dc_field(default_factory=dict)
    _memo: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def embed_a(self, vec: list) -> list:
        out = [self.gamma.field.zero()] * self.gamma.dim
        for i, c in enumerate(vec):
            out[self.a_offset + i] = c
        return out

    def embed_b(self, vec: list) -> list:
        out = [self.gamma.field.zero()] * self.gamma.dim
        for i, c in enumerate(vec):
            out[self.b_offset + i] = c
        return out

    def e_a(self) -> list:
        return self.embed_a(self.a.unit())

    def e_b(self) -> list:
        return self.embed_b(self.b.unit())


def build_triangular(a: Algebra, b: Algebra, n: Bimodule) -> TriangularContext:
    """Assemble the triangular algebra with A on top, B on the bottom, and the
    bimodule in the corner; records whether the bimodule is projective on
    each side."""
    if not same_algebra(n.left_alg, a):
        raise ValidationError("bimodule's left algebra is not the given top algebra")
    if not same_algebra(n.right_alg, b):
        raise ValidationError("bimodule's right algebra is not the given bottom algebra")
    f = a.field
    if b.field != f:
        raise ValidationError("field mismatch between the two algebras")
    da, dn, db = a.dim, n.dim, b.dim
    dim = da + dn + db
    a_off, n_off, b_off = 0, da, da + dn
    labels = [f"a.{l}" for l in a.labels] + [f"n.{i}" for i in range(dn)] + [f"b.{l}" for l in b.labels]

    f0 = f.zero()

    def out_zero():
        return [f0] * dim

    constants: list[list[list]] = [[None] * dim for _ in range(dim)]
    # A * A
    for i in range(da):
        for j in range(da):
            vec = out_zero()
            for m, c in enumerate(a.constants[i][j]):
                vec[a_off + m] = c
            constants[a_off + i][a_off + j] = vec
    # B * B
    for i in range(db):
        for j in range(db):
            vec = out_zero()
            for m, c in enumerate(b.constants[i][j]):
                vec[b_off + m] = c
            constants[b_off + i][b_off + j] = vec
    # A * N (left action: x * nu applies nu's matrix ... x acts on the left)
    for i in range(da):
        act = n.left_action[a.labels[i]]
        for j in range(dn):
            vec = out_zero()
            for m in range(dn):
                vec[n_off + m] = act.data[m][j]
            constants[a_off + i][n_off + j] = vec
    # N * B (right action: nu * y)
    for j in range(db):
        act = n.right_action[b.labels[j]]
        for i in range(dn):
            vec = out_zero()
            for m in range(dn):
                vec[n_off + m] = act.data[m][i]
            constants[n_off + i][b_off + j] = vec
    # all other blocks vanish (N*N, N*A, B*A, B*N, A*B)
    for i in range(dim):
        for j in range(dim):
            if constants[i][j] is None:
                constants[i][j] = out_zero()

    idempotents = []
    for lbl, vec in a.idempotents:
        w = out_zero()
        for m, c in enumerate(vec):
            w[a_off + m] = c
        idempotents.append((f"a.{lbl}", w))
    for lbl, vec in b.idempotents:
        w = out_zero()
        for m, c in enumerate(vec):
            w[b_off + m] = c
        idempotents.append((f"b.{lbl}", w))

    rad_gens = []
    for r in a.radical_rows.data:
        w = out_zero()
        for m, c in enumerate(r):
            w[a_off + m] = c
        rad_gens.append(w)
    for i in range(dn):
        w = out_zero()
        w[n_off + i] = f.one()
        rad_gens.append(w)
    for r in b.radical_rows.data:
        w = out_zero()
        for m, c in enumerate(r):
            w[b_off + m] = c
        rad_gens.append(w)
    rad_rows = row_space_basis(rad_gens, f, dim)

    gamma = Algebra(f, labels, constants, idempotents, rad_rows, "triangular")
    ctx = TriangularContext(gamma, a, b, n, a_off, n_off, b_off)

    if dn == 0:
        ctx.hypothesis_flags = {"left_n_projective": True, "right_n_projective": True}
    else:
        from . import modules as _modules  # deferred: modules depends on this file

        left_mod = _modules.Module(a, dn, {lbl: n.left_action[lbl] for lbl in a.labels})
        right_mod = _modules.Module(opposite_algebra(b), dn, {lbl: n.right_action[lbl] for lbl in b.labels})
        ctx.hypothesis_flags = {
            "left_n_projective": _modules.is_projective(left_mod),
            "right_n_projective": _modules.is_projective(right_mod),
        }
    return ctx
