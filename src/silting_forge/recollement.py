"""Six-functor contexts around an idempotent, triangular gluing, and drivers.

An idempotent of an algebra cuts the module category into three layers:
modules over the quotient by the idempotent ideal, modules over the ambient
algebra, and modules over the corner algebra.  This module builds that
context with explicit, certificate-checked functors:

* :func:`idempotent_recollement` -- construct the context and run the
  adjunction/composition battery on a structured probe set,
* :func:`apply_functor` -- apply any of the six functors to a module or map,
* :func:`triangular_functors` -- the module-triple dictionary for an upper
  triangular algebra, with the section/retraction functors,
* :func:`analytic_gp_modules` -- the closed-form relative-projective list
  for a triangular algebra,
* :func:`glued_gp_presentation` -- block-diagonal gluing of a presentation
  with projective terms with a relative presentation,
* :func:`verify_transfer` -- drivers that evaluate both sides of the
  transfer statements on the input modules (``t``, or ``x`` and ``y``) and
  report atom-by-atom verdicts.  The idempotent drivers decide "is silting"
  for each module by the support-τ-tilting criterion of
  :func:`~.silting.silting_module_verdict`; the triangular drivers test
  membership against the automatic relative presentations.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field as dc_field
from functools import partial

from .algebra import (
    Algebra,
    Bimodule,
    DomainError,
    TriangularContext,
    ValidationError,
    derive_algebra,
    memoized,
    same_algebra,
)
from .exactlinalg import Matrix, nullspace, row_space_basis, solve
from .gorenstein import (
    d_theta_contains,
    gen_g_contains,
    gorenstein_report,
    gorenstein_silting_check,
    gp_classification,
    is_g_exact,
    left_approximation_sequence,
    proper_gp_presentation,
)
from .modules import (
    Module,
    ModuleMap,
    Presentation,
    UndecidedError,
    conjugate,
    direct_sum,
    enumerate_indecomposables,
    global_dimension,
    hom_coordinates,
    hom_dim,
    hom_module,
    hom_space,
    indecomposable_projectives,
    is_isomorphic,
    is_projective,
    quotient_module,
    restrict,
    simple_module,
    submodule,
    tensor_map,
    tensor_over_algebra,
    zero_module,
)
from .silting import direct_sum_presentation, silting_module_verdict

# ---------------------------------------------------------------------------
# Probe sets
# ---------------------------------------------------------------------------


def structured_probe_modules(alg: Algebra) -> list[Module]:
    """Simples, indecomposable projectives, and the regular module."""
    out: list[Module] = []
    seen: set[str] = set()
    for lbl, _ in alg.idempotents:
        out.append(simple_module(alg, lbl))
    for p, _ in indecomposable_projectives(alg):
        out.append(p)
    reg, _, _ = direct_sum([p for p, _ in indecomposable_projectives(alg)], algebra=alg)
    out.append(reg)
    unique = []
    for m in out:
        key = m.encode()
        if key not in seen:
            seen.add(key)
            unique.append(m)
    return unique


def random_probe_modules(alg: Algebra, count: int, seed: int = 0) -> list[Module]:
    """Deterministic pseudo-random modules: quotients and submodules of sums
    of indecomposable projectives by radical-generated subspaces."""
    rng = random.Random(seed)
    projs = [p for p, _ in indecomposable_projectives(alg)]
    f = alg.field

    def random_scalar():
        if f.kind == "prime":
            return rng.randrange(f.p)
        return f.coerce(rng.randrange(-3, 4))

    out: list[Module] = []
    while len(out) < count:
        mults = [rng.randrange(0, 3) for _ in projs]
        if not any(mults):
            mults[rng.randrange(len(projs))] = 1
        parts: list[Module] = []
        for p, k in zip(projs, mults):
            parts.extend([p] * k)
        big, _, _ = direct_sum(parts, algebra=alg)
        radcols = big.radical_columns()
        gens = []
        for _ in range(rng.randrange(0, max(1, radcols.ncols + 1))):
            coeffs = [random_scalar() for _ in range(radcols.ncols)]
            col = [f.zero()] * big.dim
            for j, c in enumerate(coeffs):
                for i in range(big.dim):
                    col[i] = f.add(col[i], f.mul(f.coerce(c), radcols.data[i][j]))
            gens.append(col)
        # close the span under the action so the columns cut out a submodule
        closed = list(gens)
        for g in gens:
            for lbl in alg.labels:
                closed.append([r[0] for r in big.rho(lbl).mul(Matrix.column(f, g)).data])
        span = row_space_basis(closed, f, big.dim).transpose()
        if rng.random() < 0.5:
            m, _ = quotient_module(big, span)
        else:
            m, _ = submodule(big, span)
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Idempotent recollement context
# ---------------------------------------------------------------------------


@dataclass
class RecollementContext:
    """Quotient / ambient / corner layers around an idempotent, with the
    matrices realising the six functors.

    :func:`idempotent_recollement` builds it, and no field is reassigned or
    changed after that returns: each functor image is memoized in ``_memo``
    for the context's lifetime and shared by every caller."""

    middle: Algebra
    quotient: Algebra | None
    corner: Algebra
    e_labels: tuple[str, ...]
    data: dict
    battery: dict = dc_field(default_factory=dict)
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "middle_dim": self.middle.dim,
            "quotient_dim": self.quotient.dim if self.quotient is not None else 0,
            "corner_dim": self.corner.dim,
            "e_labels": list(self.e_labels),
            "battery": self.battery,
        }


def _col_basis(mat: Matrix) -> Matrix:
    """Canonical column basis of the column space (rows × rank)."""
    rows = [list(r) for r in mat.transpose().data]
    return row_space_basis(rows, mat.field, mat.nrows).transpose()


def _restrict_into(basis: Matrix, cols: Matrix) -> Matrix:
    """Coordinates of the columns in the given column basis."""
    sol = solve(basis, cols)
    if sol is None:
        raise ValidationError("columns fall outside the subspace")
    return sol


def _restrict_all(basis: Matrix, labels: list[str], mats: list[Matrix]) -> dict[str, Matrix]:
    """Each label's matrix restricted to the span of ``basis``, by one
    :func:`restrict`."""
    restricted = restrict(basis, mats)
    if restricted is None:
        raise ValidationError("columns fall outside the subspace")
    return dict(zip(labels, restricted))


def _layer_module(basis: Matrix, alg: Algebra, mats: list[Matrix]) -> Module:
    """The subspace spanned by ``basis`` as a module over ``alg``, whose i-th
    label acts by ``mats[i]`` restricted to it."""
    return Module(alg, basis.ncols, _restrict_all(basis, alg.labels, mats))


def idempotent_recollement(alg: Algebra, e_labels) -> RecollementContext:
    """Build the three-layer context around the idempotent subset and run the
    construction battery.

    Failure of any battery identity raises a :class:`ValidationError` whose
    diagnostics carry the witnessing probe.  When the idempotent ideal is the
    whole algebra the quotient layer degenerates; it is stored as ``None``
    and the outer-side functors are unavailable.
    """
    f = alg.field
    known = [lbl for lbl, _ in alg.idempotents]
    e_list = [lbl for lbl in known if lbl in set(e_labels)]
    if len(e_list) != len(set(e_labels)):
        missing = sorted(set(e_labels) - set(known))
        raise ValidationError(f"unknown idempotent labels {missing}; have {known}")
    if not e_list:
        raise ValidationError("the idempotent subset must be nonempty")

    corner, cstruct = derive_algebra(alg, "corner", e=e_list)
    notes = []
    try:
        quotient, qstruct = derive_algebra(alg, "quotient_idempotent_ideal", e=e_list)
    except DomainError:
        quotient, qstruct = None, None
        notes.append("idempotent ideal is the whole algebra; quotient layer degenerate")

    evec = [f.zero()] * alg.dim
    for lbl in e_list:
        evec = [f.add(a, b) for a, b in zip(evec, alg.idempotent_vector(lbl))]

    data: dict = {
        "evec": evec,
        "corner_rows": cstruct["inclusion"],
        "notes": notes,
    }
    if quotient is not None:
        data["projection"] = qstruct["projection"]
        data["ideal"] = qstruct["ideal"]
        data["keep"] = [alg.labels.index(lbl) for lbl in quotient.labels]

    # left-layer bimodule: the left ideal generated by the idempotent,
    # carrying (middle, corner) actions -- realises the induction functor
    gens = [alg.multiply(alg.basis_vector(i), evec) for i in range(alg.dim)]
    lf_rows = row_space_basis(gens, f, alg.dim)
    F = lf_rows.transpose()
    corner_rows = [list(w) for w in data["corner_rows"].data]
    left_action = _restrict_all(F, alg.labels, [alg.left_mult_matrix(alg.basis_vector(i)) for i in range(alg.dim)])
    right_action = _restrict_all(F, corner.labels, [alg.right_mult_matrix(w) for w in corner_rows])
    data["l_bimodule"] = Bimodule(alg, corner, F.ncols, left_action, right_action)

    # right-layer space: the right ideal generated by the idempotent, as a
    # left corner module with a recorded right action of the ambient algebra
    gens = [alg.multiply(evec, alg.basis_vector(i)) for i in range(alg.dim)]
    rt_rows = row_space_basis(gens, f, alg.dim)
    H = rt_rows.transpose()
    data["r_space"] = _layer_module(H, corner, [alg.left_mult_matrix(w) for w in corner_rows])
    right_mults = [alg.right_mult_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
    data["r_right_action"] = _restrict_all(H, alg.labels, right_mults)

    ctx = RecollementContext(alg, quotient, corner, tuple(e_list), data)
    ctx.battery = _construction_battery(ctx)
    return ctx


@memoized
def _functor_module(ctx: RecollementContext, which: str, m: Module):
    """Apply one functor to a module; returns (module, transport data)."""
    f = ctx.middle.field
    if which == "i":
        proj = ctx.data["projection"]
        action = {}
        for j, lbl in enumerate(ctx.middle.labels):
            coeffs = [proj.data[t][j] for t in range(proj.nrows)]
            action[lbl] = m.act(coeffs)
        return Module(ctx.middle, m.dim, action), None
    if which == "q":
        ideal = ctx.data["ideal"]
        blocks = [m.act(list(r)) for r in ideal.data]
        cols = Matrix.hstack(blocks) if blocks else Matrix.zeros(f, m.dim, 0)
        quo_mid, pi = quotient_module(m, _col_basis(cols))
        section = solve(pi.matrix, Matrix.identity(f, quo_mid.dim))
        mats = conjugate(pi.matrix, [m.rho(ctx.middle.labels[mid_idx]) for mid_idx in ctx.data["keep"]], section)
        return Module(ctx.quotient, quo_mid.dim, dict(zip(ctx.quotient.labels, mats))), pi.matrix
    if which == "p":
        blocks = [m.act(list(r)) for r in ctx.data["ideal"].data]
        K = nullspace(Matrix.vstack(blocks) if blocks else Matrix.zeros(f, 0, m.dim))
        mats = [m.rho(ctx.middle.labels[mid_idx]) for mid_idx in ctx.data["keep"]]
        return _layer_module(K, ctx.quotient, mats), K
    if which == "e":
        E = _col_basis(m.act(ctx.data["evec"]))
        mats = [m.act(list(r)) for r in ctx.data["corner_rows"].data]
        return _layer_module(E, ctx.corner, mats), E
    if which == "l":
        return tensor_over_algebra(ctx.data["l_bimodule"], m)[0], None
    if which == "r":
        homs = hom_space(ctx.data["r_space"], m)
        return hom_module(homs, ctx.middle, ctx.data["r_right_action"]), homs
    raise ValidationError(f"unknown functor {which!r}; expected one of i,q,p,e,l,r")


_FUNCTOR_SOURCE = {"i": "quotient", "q": "middle", "p": "middle", "e": "middle", "l": "corner", "r": "corner"}


def _expected_algebra(ctx: RecollementContext, which: str) -> Algebra:
    name = _FUNCTOR_SOURCE.get(which)
    if name is None:
        raise ValidationError(f"unknown functor {which!r}; expected one of i,q,p,e,l,r")
    alg = getattr(ctx, name)
    if alg is None:
        raise ValidationError(
            f"functor {which!r} needs the {name} layer, which is degenerate here"
        )
    return alg


def apply_functor(ctx: RecollementContext, which: str, x):
    """Apply one of the six functors to a module or a map.

    The image of a module, and the source and target of the image of a map,
    are memoized on ``ctx``: every caller gets the same module, and no caller
    may mutate it."""
    expected = _expected_algebra(ctx, which)
    if isinstance(x, Module):
        if not same_algebra(x.algebra, expected):
            raise ValidationError(
                f"functor {which!r} expects input over the {_FUNCTOR_SOURCE[which]} algebra"
            )
        return _functor_module(ctx, which, x)[0]
    if isinstance(x, ModuleMap):
        if not same_algebra(x.source.algebra, expected):
            raise ValidationError(
                f"functor {which!r} expects a map over the {_FUNCTOR_SOURCE[which]} algebra"
            )
        if which == "l":
            return tensor_map(ctx.data["l_bimodule"], x)
        fsrc, dsrc = _functor_module(ctx, which, x.source)
        ftgt, dtgt = _functor_module(ctx, which, x.target)
        f = ctx.middle.field
        if which == "i":
            mat = x.matrix
        elif which == "q":
            section = solve(dsrc, Matrix.identity(f, fsrc.dim))
            mat = dtgt.mul(x.matrix).mul(section)
        elif which in ("p", "e"):
            mat = _restrict_into(dtgt, x.matrix.mul(dsrc))
        else:  # r: Hom(space, x) sends h to x∘h
            composites = [x.matrix.mul(h.matrix) for h in dsrc]
            mat = hom_coordinates(dtgt, composites) if dsrc else Matrix.zeros(f, ftgt.dim, 0)
        return ModuleMap(fsrc, ftgt, mat)
    raise ValidationError("apply_functor takes a Module or a ModuleMap")


def _construction_battery(ctx: RecollementContext) -> dict:
    """Adjunction dimension identities and composite identities on the
    structured probe set; raises with a witness on the first failure."""
    mids = structured_probe_modules(ctx.middle)
    cors = structured_probe_modules(ctx.corner)
    quos = structured_probe_modules(ctx.quotient) if ctx.quotient is not None else []
    report = {"adjunction_pairs": 0, "composites": 0, "notes": list(ctx.data["notes"])}

    def fail(identity, witness):
        raise ValidationError(
            f"recollement battery failed: {identity}", identity=identity, witness=witness
        )

    for m in mids:
        for xq in quos:
            lhs = hom_dim(apply_functor(ctx, "q", m), xq)
            rhs = hom_dim(m, apply_functor(ctx, "i", xq))
            if lhs != rhs:
                fail("dim Hom(q(M),X) = dim Hom(M,i(X))",
                     {"M_dim": m.dim, "X_dim": xq.dim, "lhs": lhs, "rhs": rhs})
            lhs = hom_dim(apply_functor(ctx, "i", xq), m)
            rhs = hom_dim(xq, apply_functor(ctx, "p", m))
            if lhs != rhs:
                fail("dim Hom(i(X),M) = dim Hom(X,p(M))",
                     {"M_dim": m.dim, "X_dim": xq.dim, "lhs": lhs, "rhs": rhs})
            report["adjunction_pairs"] += 1
        for yc in cors:
            lhs = hom_dim(apply_functor(ctx, "l", yc), m)
            rhs = hom_dim(yc, apply_functor(ctx, "e", m))
            if lhs != rhs:
                fail("dim Hom(l(Y),M) = dim Hom(Y,e(M))",
                     {"M_dim": m.dim, "Y_dim": yc.dim, "lhs": lhs, "rhs": rhs})
            lhs = hom_dim(apply_functor(ctx, "e", m), yc)
            rhs = hom_dim(m, apply_functor(ctx, "r", yc))
            if lhs != rhs:
                fail("dim Hom(e(M),Y) = dim Hom(M,r(Y))",
                     {"M_dim": m.dim, "Y_dim": yc.dim, "lhs": lhs, "rhs": rhs})
            report["adjunction_pairs"] += 2
    for xq in quos:
        ei = apply_functor(ctx, "e", apply_functor(ctx, "i", xq))
        if ei.dim != 0:
            fail("e∘i = 0", {"X_dim": xq.dim, "ei_dim": ei.dim})
        qi = apply_functor(ctx, "q", apply_functor(ctx, "i", xq))
        if is_isomorphic(qi, xq) is None:
            fail("q∘i ≅ id", {"X_dim": xq.dim, "qi_dim": qi.dim})
        pi_ = apply_functor(ctx, "p", apply_functor(ctx, "i", xq))
        if is_isomorphic(pi_, xq) is None:
            fail("p∘i ≅ id", {"X_dim": xq.dim, "pi_dim": pi_.dim})
        report["composites"] += 3
    for yc in cors:
        el = apply_functor(ctx, "e", apply_functor(ctx, "l", yc))
        if is_isomorphic(el, yc) is None:
            fail("e∘l ≅ id", {"Y_dim": yc.dim, "el_dim": el.dim})
        er = apply_functor(ctx, "e", apply_functor(ctx, "r", yc))
        if is_isomorphic(er, yc) is None:
            fail("e∘r ≅ id", {"Y_dim": yc.dim, "er_dim": er.dim})
        report["composites"] += 2
    return report


def run_adjunction_battery(ctx: RecollementContext, count: int = 100, seed: int = 0) -> dict:
    """Adjunction dimension identities and composite identities on
    pseudo-random probe pairs.

    Returns a report with the number of pairs checked per identity; raises a
    :class:`ValidationError` carrying the witness on the first failure.
    """
    half = max(1, count // 2)
    mids = random_probe_modules(ctx.middle, half, seed)
    cors = random_probe_modules(ctx.corner, half, seed + 1)
    quos = random_probe_modules(ctx.quotient, half, seed + 2) if ctx.quotient is not None else []
    checked = {"q_left_of_i": 0, "l_left_of_e": 0, "e_left_of_r": 0, "composites": 0}
    for k in range(half):
        m = mids[k]
        if quos:
            xq = quos[k]
            lhs = hom_dim(apply_functor(ctx, "q", m), xq)
            rhs = hom_dim(m, apply_functor(ctx, "i", xq))
            if lhs != rhs:
                raise ValidationError(
                    "random battery failed: dim Hom(q(M),X) != dim Hom(M,i(X))",
                    witness={"seed": seed, "index": k, "lhs": lhs, "rhs": rhs},
                )
            checked["q_left_of_i"] += 1
        yc = cors[k]
        lhs = hom_dim(apply_functor(ctx, "l", yc), m)
        rhs = hom_dim(yc, apply_functor(ctx, "e", m))
        if lhs != rhs:
            raise ValidationError(
                "random battery failed: dim Hom(l(Y),M) != dim Hom(Y,e(M))",
                witness={"seed": seed, "index": k, "lhs": lhs, "rhs": rhs},
            )
        checked["l_left_of_e"] += 1
        lhs = hom_dim(apply_functor(ctx, "e", m), yc)
        rhs = hom_dim(m, apply_functor(ctx, "r", yc))
        if lhs != rhs:
            raise ValidationError(
                "random battery failed: dim Hom(e(M),Y) != dim Hom(M,r(Y))",
                witness={"seed": seed, "index": k, "lhs": lhs, "rhs": rhs},
            )
        checked["e_left_of_r"] += 1
        if quos:
            xq = quos[k]
            inflated = apply_functor(ctx, "i", xq)
            if apply_functor(ctx, "e", inflated).dim != 0:
                raise ValidationError(
                    "random battery failed: e(i(X)) != 0",
                    witness={"seed": seed, "index": k},
                )
            if is_isomorphic(apply_functor(ctx, "q", inflated), xq) is None:
                raise ValidationError(
                    "random battery failed: q(i(X)) not isomorphic to X",
                    witness={"seed": seed, "index": k},
                )
        if is_isomorphic(apply_functor(ctx, "e", apply_functor(ctx, "l", yc)), yc) is None:
            raise ValidationError(
                "random battery failed: e(l(Y)) not isomorphic to Y",
                witness={"seed": seed, "index": k},
            )
        checked["composites"] += 1
    checked["pairs"] = half
    return checked


# ---------------------------------------------------------------------------
# Triangular functors
# ---------------------------------------------------------------------------


@dataclass
class Triple:
    """A module datum over a triangular algebra: a top-algebra module, a
    bottom-algebra module, and a linking map from the induced tensor."""

    x: Module
    y: Module
    f: ModuleMap


def triangular_tensor(tctx: TriangularContext, y: Module):
    """The induced module of the connecting bimodule against ``y``, with the
    coordinate projection and a section."""
    t_mod, tdata = tensor_over_algebra(tctx.n, y)
    return t_mod, tdata["projection"], tdata["section"]


def _assemble_triple(tctx: TriangularContext, x: Module, y: Module, fmat: Matrix | None) -> Module:
    """Module over the triangular algebra from a triple datum (full-matrix
    form of the linking map against tensor coordinates)."""
    f = tctx.gamma.field
    dx, dy = x.dim, y.dim
    labels = tctx.gamma.labels
    action: dict[str, Matrix] = {}
    for i, lbl in enumerate(tctx.a.labels):
        action[labels[tctx.a_offset + i]] = Matrix.block_diag(f, [x.rho(lbl), Matrix.zeros(f, dy, dy)])
    for i, lbl in enumerate(tctx.b.labels):
        action[labels[tctx.b_offset + i]] = Matrix.block_diag(f, [Matrix.zeros(f, dx, dx), y.rho(lbl)])
    for t in range(tctx.n.dim):
        if fmat is None:
            link = Matrix.zeros(f, dx, dy)
        else:
            link = Matrix(f, [row[t * dy : (t + 1) * dy] for row in fmat.data], dx, dy)
        # the empty outer blocks put the link in the upper-right corner
        corner = [Matrix.zeros(f, 0, dx), link, Matrix.zeros(f, dy, 0)]
        action[labels[tctx.n_offset + t]] = Matrix.block_diag(f, corner)
    return Module(tctx.gamma, dx + dy, action)


def _triple_to_module(tctx: TriangularContext, triple: Triple) -> Module:
    _check_algebra(triple.x, tctx.a, "the top algebra")
    _check_algebra(triple.y, tctx.b, "the bottom algebra")
    t_mod, proj, _ = triangular_tensor(tctx, triple.y)
    fm = triple.f
    if fm is None:
        full = None
    else:
        if fm.source.dim != t_mod.dim or fm.target.dim != triple.x.dim:
            raise ValidationError(
                "linking map must go from the induced tensor module to the top module"
            )
        full = fm.matrix.mul(proj)
    return _assemble_triple(tctx, triple.x, triple.y, full)


def _check_algebra(m, alg: Algebra, name: str):
    actual = m.algebra if isinstance(m, Module) else m.source.algebra
    if not same_algebra(actual, alg):
        raise ValidationError(f"input is not over {name}")


def _corner_restriction(tctx: TriangularContext, m: Module, side: str):
    """The top (side='a') or bottom (side='b') component with its basis."""
    evec = tctx.e_a() if side == "a" else tctx.e_b()
    alg = tctx.a if side == "a" else tctx.b
    offset = tctx.a_offset if side == "a" else tctx.b_offset
    E = _col_basis(m.act(evec))
    mats = [m.rho(tctx.gamma.labels[offset + i]) for i in range(alg.dim)]
    return _layer_module(E, alg, mats), E


@memoized
def _module_to_triple(tctx: TriangularContext, m: Module) -> Triple:
    _check_algebra(m, tctx.gamma, "the triangular algebra")
    f = tctx.gamma.field
    x, Ea = _corner_restriction(tctx, m, "a")
    y, Eb = _corner_restriction(tctx, m, "b")
    if x.dim + y.dim != m.dim:
        raise ValidationError("idempotent blocks do not fill the module")
    t_mod, proj, section = triangular_tensor(tctx, y)
    # the leading empty block keeps hstack defined for a zero bimodule
    full = _restrict_into(Ea, Matrix.hstack([Matrix.zeros(f, m.dim, 0)] + [
        m.rho(tctx.gamma.labels[tctx.n_offset + t]).mul(Eb) for t in range(tctx.n.dim)
    ]))
    fmat = full.mul(section)
    if fmat.mul(proj) != full:
        raise ValidationError("linking data does not descend to the induced tensor module")
    return Triple(x, y, ModuleMap(t_mod, x, fmat))


@memoized
def _z_a(tctx: TriangularContext, x):
    if isinstance(x, ModuleMap):
        _check_algebra(x, tctx.a, "the top algebra")
        src = _z_a(tctx, x.source)
        tgt = _z_a(tctx, x.target)
        return ModuleMap(src, tgt, x.matrix)
    _check_algebra(x, tctx.a, "the top algebra")
    return _assemble_triple(tctx, x, zero_module(tctx.b), None)


@memoized
def _t_b(tctx: TriangularContext, y):
    if isinstance(y, ModuleMap):
        _check_algebra(y, tctx.b, "the bottom algebra")
        top = tensor_map(tctx.n, y).matrix
        mat = Matrix.block_diag(tctx.gamma.field, [top, y.matrix])
        return ModuleMap(_t_b(tctx, y.source), _t_b(tctx, y.target), mat)
    _check_algebra(y, tctx.b, "the bottom algebra")
    t_mod, proj, _ = triangular_tensor(tctx, y)
    return _assemble_triple(tctx, t_mod, y, proj)


def _embed(ref, functor, x):
    return functor(ref(), x)


@memoized
def _embedding(tctx: TriangularContext, side: str):
    """Z_A (side "a") or T_B (side "b") as one object per context and side.
    It holds the context weakly: the tables it keys live in the context's
    memo, and a strong reference would keep the context for the collector."""
    return partial(_embed, weakref.ref(tctx), _z_a if side == "a" else _t_b)


def _u_side(tctx: TriangularContext, x, side: str):
    if isinstance(x, ModuleMap):
        _check_algebra(x, tctx.gamma, "the triangular algebra")
        src, Es = _corner_restriction(tctx, x.source, side)
        tgt, Et = _corner_restriction(tctx, x.target, side)
        return ModuleMap(src, tgt, _restrict_into(Et, x.matrix.mul(Es)))
    _check_algebra(x, tctx.gamma, "the triangular algebra")
    return _corner_restriction(tctx, x, side)[0]


def _h_a(tctx: TriangularContext, x):
    if isinstance(x, ModuleMap):
        raise ValidationError("the hom-layer functor supports modules only")
    _check_algebra(x, tctx.a, "the top algebra")
    n_left = Module(tctx.a, tctx.n.dim, dict(tctx.n.left_action))
    homs = hom_space(n_left, x)
    yprime = hom_module(homs, tctx.b, tctx.n.right_action)
    _, proj, section = triangular_tensor(tctx, yprime)
    # evaluation n_i ⊗ h_k |-> h_k(n_i), in tensor coordinate i * len(homs) + k
    full = Matrix(
        tctx.gamma.field,
        [[h.matrix.data[r][i] for i in range(tctx.n.dim) for h in homs] for r in range(x.dim)],
        x.dim,
        tctx.n.dim * len(homs),
    )
    fmat = full.mul(section)
    return _assemble_triple(tctx, x, yprime, fmat.mul(proj))


_TRIANGULAR_WHICH = {"Z_A", "U_A", "T_B", "U_B", "H_A", "triple_to_module", "module_to_triple"}


def triangular_functors(tctx: TriangularContext, which: str, x):
    """The module-triple dictionary and the section/retraction functors of a
    triangular algebra.

    ``which`` selects the functor; ``x`` is a module or map over the
    appropriate algebra, a :class:`Triple` for ``triple_to_module``, or a
    module over the triangular algebra for ``module_to_triple``.  The images
    of ``Z_A``, ``T_B`` and ``module_to_triple`` are memoized on ``tctx``, and
    the induced tensor modules on its bimodule: every caller gets the same
    object, and no caller may mutate it.
    """
    if which not in _TRIANGULAR_WHICH:
        raise ValidationError(f"unknown triangular functor {which!r}")
    if which == "Z_A":
        return _z_a(tctx, x)
    if which == "T_B":
        return _t_b(tctx, x)
    if which == "U_A":
        return _u_side(tctx, x, "a")
    if which == "U_B":
        return _u_side(tctx, x, "b")
    if which == "H_A":
        return _h_a(tctx, x)
    if which == "triple_to_module":
        if not isinstance(x, Triple):
            raise ValidationError("triple_to_module takes a Triple")
        return _triple_to_module(tctx, x)
    if not isinstance(x, Module):
        raise ValidationError("module_to_triple takes a module over the triangular algebra")
    return _module_to_triple(tctx, x)


def triple_map_to_module_map(
    tctx: TriangularContext,
    src: Triple,
    tgt: Triple,
    phi_x: ModuleMap,
    phi_y: ModuleMap,
) -> ModuleMap:
    """Morphism of triples as a map of triangular modules.

    Requires the square linking the two triples to commute: the top
    component composed with the source linking map must equal the target
    linking map composed with the induced tensor of the bottom component.
    """
    _check_algebra(phi_x, tctx.a, "the top algebra")
    _check_algebra(phi_y, tctx.b, "the bottom algebra")
    tensored = tensor_map(tctx.n, phi_y).matrix
    if phi_x.matrix.mul(src.f.matrix) != tgt.f.matrix.mul(tensored):
        raise ValidationError("triple map data does not commute with the linking maps")
    mat = Matrix.block_diag(tctx.gamma.field, [phi_x.matrix, phi_y.matrix])
    return ModuleMap(_triple_to_module(tctx, src), _triple_to_module(tctx, tgt), mat)


# ---------------------------------------------------------------------------
# Analytic relative-projective list and glued presentations
# ---------------------------------------------------------------------------


def triangular_hypotheses(tctx: TriangularContext) -> dict:
    """The gluing hypotheses: finite top global dimension, two-sided
    projectivity of the connecting bimodule, and the ambient certificate."""
    out = {
        "top_global_dimension_finite": global_dimension(tctx.a) is not None,
        "bimodule_projective_left": bool(tctx.hypothesis_flags.get("left_n_projective")),
        "bimodule_projective_right": bool(tctx.hypothesis_flags.get("right_n_projective")),
        "ambient_iwanaga_gorenstein": bool(gorenstein_report(tctx.gamma)),
    }
    return out


def analytic_gp_modules(tctx: TriangularContext, dim_bound: int = 4) -> list[Module]:
    """Closed-form list of the relative projectives over a triangular
    algebra inside the dimension bound: sections of top-algebra relative
    projectives and induced bottom-algebra relative projectives."""
    gpa = gp_classification(tctx.a, dim_bound=dim_bound)
    gpb = gp_classification(tctx.b, dim_bound=dim_bound)
    out: list[Module] = []
    for g in gpa.modules:
        za = _z_a(tctx, g)
        if za.dim <= dim_bound:
            out.append(za)
    for e in gpb.modules:
        te = _t_b(tctx, e)
        if te.dim <= dim_bound:
            out.append(te)
    return out


def glued_gp_presentation(
    tctx: TriangularContext,
    theta_x: Presentation,
    theta_y: Presentation,
    dim_bound: int = 4,
) -> Presentation:
    """Block-diagonal relative presentation over the triangular algebra from
    a projective presentation upstairs and a relative presentation
    downstairs.

    Preconditions are the gluing hypotheses; the first failed hypothesis is
    named in the raised error.  The top presentation needs projective terms,
    whatever its kind: over a top algebra of finite global dimension the
    relative presentations the drivers build are such, as the relative
    projectives are the projectives there.  The certificate records relative
    exactness against the classified relative projectives.
    """
    hyps = triangular_hypotheses(tctx)
    for name, ok in hyps.items():
        if not ok:
            raise ValidationError(f"gluing hypothesis {name!r} fails")
    if not (is_projective(theta_x.map.source) and is_projective(theta_x.map.target)):
        raise ValidationError("the top presentation must have projective terms")
    if theta_y.kind != "gorenstein_projective":
        raise ValidationError("the bottom presentation must be relative-kind")
    _check_algebra(theta_x.map, tctx.a, "the top algebra")
    _check_algebra(theta_y.map, tctx.b, "the bottom algebra")

    part_x = Presentation(
        kind="gorenstein_projective",
        map=_z_a(tctx, theta_x.map),
        cokernel=_z_a(tctx, theta_x.cokernel),
        coker_map=ModuleMap(
            _z_a(tctx, theta_x.map.target),
            _z_a(tctx, theta_x.cokernel),
            theta_x.coker_map.matrix,
        ),
        certificates={"transport": "section"},
    )
    part_y = Presentation(
        kind="gorenstein_projective",
        map=_t_b(tctx, theta_y.map),
        cokernel=_t_b(tctx, theta_y.cokernel),
        coker_map=_t_b(tctx, theta_y.coker_map),
        certificates={"transport": "induction"},
    )
    glued = direct_sum_presentation([part_x, part_y], algebra=tctx.gamma)
    gex = is_g_exact((glued.map, glued.coker_map), gp_classification(tctx, dim_bound=dim_bound))
    glued.certificates.update(
        {
            "hypotheses": hyps,
            "relatively_exact": bool(gex),
            "relative_exactness_witness": gex.witness,
        }
    )
    if not gex:
        raise ValidationError(
            "glued presentation is not relatively exact", witness=gex.witness
        )
    return glued


# ---------------------------------------------------------------------------
# Statement drivers
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Atom-by-atom evaluation of one transfer statement."""

    statement: str
    inputs: dict
    atoms: dict
    verdict: str  # PASS | FAIL | UNDECIDED
    witnesses: list
    notes: tuple = ()

    def __bool__(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "inputs": self.inputs,
            "atoms": self.atoms,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "notes": list(self.notes),
        }


def _describe(obj) -> dict:
    if isinstance(obj, Presentation):
        return {
            "kind": obj.kind,
            "source_dim": obj.map.source.dim,
            "target_dim": obj.map.target.dim,
            "cokernel_dim": obj.cokernel.dim,
        }
    return {
        "dim": obj.dim,
        "dimension_vector": obj.dimension_vector(),
        "algebra": obj.algebra.content_hash()[:12],
    }


def _transfer_i(
    ctx: RecollementContext,
    inputs: dict,
    statement: str = "lemma_i_transfer",
    note: str = "inflation along the canonical projection",
) -> VerificationReport:
    t = inputs["t"]
    _require_quotient(ctx)
    _check_algebra(t, ctx.quotient, "the quotient algebra")
    over_q = silting_module_verdict(t)
    over_m = silting_module_verdict(apply_functor(ctx, "i", t))
    atoms = {
        "silting_over_quotient": {"verdict": over_q["verdict"]},
        "silting_over_middle": {"verdict": over_m["verdict"]},
    }
    if "undecided" in (over_q["verdict"], over_m["verdict"]):
        verdict = "UNDECIDED"
        witnesses = [atoms]
    else:
        agree = (over_q["verdict"] == "silting") == (over_m["verdict"] == "silting")
        verdict = "PASS" if agree else "FAIL"
        witnesses = [] if agree else [{"quotient": over_q, "middle": over_m}]
    return VerificationReport(
        statement=statement,
        inputs={"t": _describe(t)},
        atoms=atoms,
        verdict=verdict,
        witnesses=witnesses,
        notes=(note,),
    )


def _transfer_q(ctx: RecollementContext, inputs: dict) -> VerificationReport:
    t = inputs["t"]
    _require_quotient(ctx)
    _check_algebra(t, ctx.middle, "the middle algebra")
    over_m = silting_module_verdict(t)
    over_q = silting_module_verdict(apply_functor(ctx, "q", t))
    atoms = {
        "silting_over_middle": {"verdict": over_m["verdict"]},
        "silting_over_quotient": {"verdict": over_q["verdict"]},
    }
    if over_m["verdict"] == "undecided" or (
        over_m["verdict"] == "silting" and over_q["verdict"] == "undecided"
    ):
        verdict = "UNDECIDED"
        witnesses = [atoms]
    else:
        holds = not (over_m["verdict"] == "silting" and over_q["verdict"] != "silting")
        verdict = "PASS" if holds else "FAIL"
        witnesses = [] if holds else [{"middle": over_m, "quotient": over_q}]
    return VerificationReport(
        statement="lemma_q_transfer",
        inputs={"t": _describe(t)},
        atoms=atoms,
        verdict=verdict,
        witnesses=witnesses,
        notes=("one-directional: quotient functor image of a silting module",),
    )


def _require_quotient(ctx: RecollementContext):
    if ctx.quotient is None:
        raise ValidationError("statement needs the quotient layer, which is degenerate")


def _dtheta_decomposition(tctx: TriangularContext, inputs: dict, probe) -> VerificationReport:
    bound = probe if isinstance(probe, int) else 3
    theta_x = proper_gp_presentation(inputs["x"], gp_classification(tctx.a, dim_bound=4))
    theta_y = proper_gp_presentation(inputs["y"], gp_classification(tctx.b, dim_bound=4))
    theta = glued_gp_presentation(tctx, theta_x, theta_y)
    rows = []
    witnesses = []
    for z in enumerate_indecomposables(tctx.gamma, bound):
        triple = _module_to_triple(tctx, z)
        lhs = d_theta_contains(theta, z)
        rhs_x = d_theta_contains(theta_x, triple.x)
        rhs_y = d_theta_contains(theta_y, triple.y)
        agree = lhs == (rhs_x and rhs_y)
        row = {
            "z": _describe(z),
            "in_glued_class": lhs,
            "top_in_class": rhs_x,
            "bottom_in_class": rhs_y,
            "agree": agree,
        }
        rows.append(row)
        if not agree:
            witnesses.append(row)
    verdict = "PASS" if not witnesses else "FAIL"
    return VerificationReport(
        statement="lemma_dtheta_decomposition",
        inputs={
            "theta_x": _describe(theta_x),
            "theta_y": _describe(theta_y),
            "probes": len(rows),
        },
        atoms={"componentwise": rows},
        verdict=verdict,
        witnesses=witnesses,
    )


def _prop_partial(tctx: TriangularContext, inputs: dict, probe) -> VerificationReport:
    x, y = inputs["x"], inputs["y"]
    _check_algebra(x, tctx.a, "the top algebra")
    _check_algebra(y, tctx.b, "the bottom algebra")
    gpa = gp_classification(tctx.a, dim_bound=4)
    gpb = gp_classification(tctx.b, dim_bound=4)
    gpg = gp_classification(tctx, dim_bound=4)
    t, _, _ = direct_sum([_z_a(tctx, x), _t_b(tctx, y)], algebra=tctx.gamma)
    ny, _, _ = triangular_tensor(tctx, y)
    lhs = d_theta_contains(proper_gp_presentation(t, gpg), t)
    rhs_x = d_theta_contains(proper_gp_presentation(x, gpa), x)
    rhs_ny = d_theta_contains(proper_gp_presentation(ny, gpa), ny)
    rhs_y = d_theta_contains(proper_gp_presentation(y, gpb), y)
    atoms = {
        "glued_partial": lhs,
        "top_partial": rhs_x,
        "tensor_image_partial": rhs_ny,
        "bottom_partial": rhs_y,
    }
    agree = lhs == (rhs_x and rhs_ny and rhs_y)
    return VerificationReport(
        statement="prop_partial_gluing",
        inputs={"x": _describe(x), "y": _describe(y)},
        atoms=atoms,
        verdict="PASS" if agree else "FAIL",
        witnesses=[] if agree else [atoms],
        notes=("membership against the automatic proper presentations",),
    )


def _cor_partial(tctx: TriangularContext, inputs: dict, probe) -> VerificationReport:
    x, y = inputs["x"], inputs["y"]
    _check_algebra(x, tctx.a, "the top algebra")
    _check_algebra(y, tctx.b, "the bottom algebra")
    gpa = gp_classification(tctx.a, dim_bound=4)
    theta_x = proper_gp_presentation(x, gpa)
    theta_y = proper_gp_presentation(y, gp_classification(tctx.b, dim_bound=4))
    theta = glued_gp_presentation(tctx, theta_x, theta_y)
    t, _, _ = direct_sum([_z_a(tctx, x), _t_b(tctx, y)], algebra=tctx.gamma)
    ny, _, _ = triangular_tensor(tctx, y)
    lhs = d_theta_contains(theta, t)
    rhs_x = d_theta_contains(theta_x, x)
    rhs_y = d_theta_contains(theta_y, y)
    rhs_gen = gen_g_contains(x, ny, gpa)
    atoms = {
        "glued_partial_wrt_glued_presentation": lhs,
        "top_partial_wrt_presentation": rhs_x,
        "bottom_partial_wrt_presentation": rhs_y,
        "tensor_image_relatively_generated": rhs_gen,
    }
    agree = lhs == (rhs_x and rhs_y and rhs_gen)
    return VerificationReport(
        statement="cor_triangular_partial",
        inputs={
            "x": _describe(x),
            "y": _describe(y),
            "theta_x": _describe(theta_x),
            "theta_y": _describe(theta_y),
        },
        atoms=atoms,
        verdict="PASS" if agree else "FAIL",
        witnesses=[] if agree else [atoms],
        notes=(
            "both sides evaluated against the proper GP presentations of x "
            "and y and the presentation glued from them; the report records "
            "theta_x and theta_y",
        ),
    )


def _thm_gluing(tctx: TriangularContext, inputs: dict, probe) -> VerificationReport:
    """Atoms a-f of the gluing theorem for x over the top algebra and y over
    the bottom one.  Atoms c and d, and atom a after its glued candidate,
    ask :func:`~.gorenstein.gorenstein_silting_check` at ``"AUTO"``, the
    maximal padding, whether the module is Gorenstein-silting under some
    presentation.
    """
    x, y = inputs["x"], inputs["y"]
    _check_algebra(x, tctx.a, "the top algebra")
    _check_algebra(y, tctx.b, "the bottom algebra")
    bound = probe if isinstance(probe, int) else 3
    gpa = gp_classification(tctx.a, dim_bound=4)
    gpb = gp_classification(tctx.b, dim_bound=4)
    gpg = gp_classification(tctx, dim_bound=4)
    probes_a = enumerate_indecomposables(tctx.a, bound)
    probes_b = enumerate_indecomposables(tctx.b, bound)
    probes_g = enumerate_indecomposables(tctx.gamma, bound)
    notes = []

    t, _, _ = direct_sum([_z_a(tctx, x), _t_b(tctx, y)], algebra=tctx.gamma)
    ny, _, _ = triangular_tensor(tctx, y)

    # (c) and (d): one check at the maximal padding on each side
    cert_x = gorenstein_silting_check(x, "AUTO", gpa, probes_a)
    cert_y = gorenstein_silting_check(y, "AUTO", gpb, probes_b)
    gen_ok = gen_g_contains(x, ny, gpa)
    atom_c = bool(cert_x) and gen_ok
    atom_d = bool(cert_y)

    theta_x = cert_x.presentation if cert_x else proper_gp_presentation(x, gpa)
    theta_y = cert_y.presentation if cert_y else proper_gp_presentation(y, gpb)
    theta = glued_gp_presentation(tctx, theta_x, theta_y)
    notes.append(
        "presentations: top="
        + ("maximal-padding" if cert_x else "automatic")
        + ", bottom="
        + ("maximal-padding" if cert_y else "automatic")
    )

    # (a): the glued candidate first, then the check at the maximal padding
    cert_glued = gorenstein_silting_check(t, theta, gpg, probes_g)
    if cert_glued.verdict == "gorenstein_silting":
        atom_a = True
        realised_a = "glued"
    else:
        atom_a = bool(gorenstein_silting_check(t, "AUTO", gpg, probes_g))
        realised_a = "maximal_padding" if atom_a else None

    # (b): block-shaped sequences for every classified relative projective:
    # a top-algebra candidate lifts by the section functor, a bottom-algebra
    # candidate by induction
    class_g = [u for u in probes_g if d_theta_contains(theta, u)]
    b_rows = []
    for g in gpg.modules:
        triple = _module_to_triple(tctx, g)
        side, part, t_side = ("a", triple.x, x) if triple.y.dim == 0 else ("b", triple.y, y)
        seq = left_approximation_sequence(part, t_side, theta, gpg, class_g, _embedding(tctx, side))
        b_rows.append({"found": seq.found, "side": side, **seq.detail, "gp_dimension_vector": g.dimension_vector()})
    atom_b = all(r["found"] for r in b_rows)

    # (e): approximation sequences for the top projectives
    class_x = [u for u in probes_a if d_theta_contains(theta_x, u)]
    e_rows = []
    for p, lbl in indecomposable_projectives(tctx.a):
        seq = left_approximation_sequence(p, x, theta_x, gpa, class_x)
        e_rows.append({"projective": lbl, "found": seq.found})
    atom_e = all(r["found"] for r in e_rows)

    # (f): approximation sequences for the bottom relative projectives
    class_y = [u for u in probes_b if d_theta_contains(theta_y, u)]
    f_rows = []
    for gmod in gpb.modules:
        seq = left_approximation_sequence(gmod, y, theta_y, gpb, class_y)
        f_rows.append({"gp_dimension_vector": gmod.dimension_vector(), "found": seq.found})
    atom_f = all(r["found"] for r in f_rows)

    conj = atom_c and atom_d and atom_e and atom_f
    eq_ab = atom_a == atom_b
    eq_acdef = atom_a == conj
    atoms = {
        "a": {"value": atom_a, "realised_by": realised_a, "glued_verdict": cert_glued.verdict},
        "b": {"value": atom_b, "rows": b_rows},
        "c": {"value": atom_c, "certified": bool(cert_x), "tensor_image_generated": gen_ok},
        "d": {"value": atom_d, "certified": bool(cert_y)},
        "e": {"value": atom_e, "rows": e_rows},
        "f": {"value": atom_f, "rows": f_rows},
        "equivalence_a_b": eq_ab,
        "equivalence_a_cdef": eq_acdef,
    }
    witnesses = []
    if not eq_ab:
        witnesses.append({"mismatch": "a vs b", "a": atom_a, "b": atom_b})
    if not eq_acdef:
        witnesses.append(
            {"mismatch": "a vs c∧d∧e∧f", "a": atom_a,
             "c": atom_c, "d": atom_d, "e": atom_e, "f": atom_f}
        )
    return VerificationReport(
        statement="thm_gluing_equivalences",
        inputs={"x": _describe(x), "y": _describe(y), "probe_bound": bound},
        atoms=atoms,
        verdict="PASS" if not witnesses else "FAIL",
        witnesses=witnesses,
        notes=tuple(notes),
    )


_INPUT_KEYS = {"idempotent": ("t",), "triangular": ("x", "y")}

_STATEMENTS = {
    "lemma_i_transfer": ("idempotent", _transfer_i),
    "lemma_q_transfer": ("idempotent", _transfer_q),
    "thm_idempotent_ideal": ("idempotent", partial(
        _transfer_i,
        statement="thm_idempotent_ideal",
        note="verdict equality across the idempotent-ideal quotient",
    )),
    "lemma_dtheta_decomposition": ("triangular", _dtheta_decomposition),
    "prop_partial_gluing": ("triangular", _prop_partial),
    "cor_triangular_partial": ("triangular", _cor_partial),
    "thm_gluing_equivalences": ("triangular", _thm_gluing),
}


def verify_transfer(ctx, statement: str, inputs: dict, probe=None) -> VerificationReport:
    """Evaluate both sides of a transfer statement and report per-atom
    verdicts with witnesses.

    ``ctx`` is a :class:`RecollementContext` for the idempotent statements or
    a :class:`TriangularContext` for the gluing statements.  ``inputs`` maps
    ``"t"`` to the module of an idempotent statement, and ``"x"``/``"y"`` to
    the top and bottom modules of a triangular one; a missing or unknown key,
    or a value that is not a :class:`Module`, raises ``ValidationError``.
    The idempotent statements decide "is silting" for a module and its image
    with :func:`~.silting.silting_module_verdict` (support τ-tilting, so a
    τ-rigid module with too few summands reads ``partial_silting_only``);
    they read no probe, and giving one raises ``ValidationError``.  For the
    triangular statements ``probe`` is a dimension bound for the probe
    sweeps.  Each left approximation of ``thm_gluing_equivalences`` is one
    tested map, the universal map into add(t).  A decomposition that stays
    undecided makes the report UNDECIDED, with no atoms.
    """
    if statement not in _STATEMENTS:
        raise ValidationError(
            f"unknown statement {statement!r}; have {sorted(_STATEMENTS)}"
        )
    kind, driver = _STATEMENTS[statement]
    if kind == "idempotent" and not isinstance(ctx, RecollementContext):
        raise ValidationError(f"{statement} needs an idempotent recollement context")
    if kind == "triangular" and not isinstance(ctx, TriangularContext):
        raise ValidationError(f"{statement} needs a triangular context")
    if probe is not None and kind == "idempotent":
        raise ValidationError(f"{statement} reads no probe; only the triangular statements do")
    if probe is not None and not isinstance(probe, int):
        raise ValidationError("transfer drivers take a dimension bound as the probe")
    keys = _INPUT_KEYS[kind]
    for key in keys:
        if key not in inputs:
            raise ValidationError(f"{statement} needs the input {key!r}")
        if not isinstance(inputs[key], Module):
            raise ValidationError(f"input {key!r} must be a Module, got {type(inputs[key]).__name__}")
    unknown = [key for key in inputs if key not in keys]
    if unknown:
        raise ValidationError(f"{statement} reads no input {unknown[0]!r}; it takes {', '.join(keys)}")
    try:
        return driver(ctx, inputs) if kind == "idempotent" else driver(ctx, inputs, probe)
    except UndecidedError as exc:
        return VerificationReport(
            statement=statement,
            inputs={k: _describe(v) for k, v in inputs.items()},
            atoms={},
            verdict="UNDECIDED",
            witnesses=[{"reason": str(exc)}],
        )
