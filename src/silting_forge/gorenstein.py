"""Self-injective-dimension certificates and relative-projective machinery.

Over an algebra whose regular module has finite injective dimension on both
sides, the modules with no higher extensions against the algebra form the
*Gorenstein-projective* (GP) class.  Everything here is parameterized by an
explicit, bounded classification of that class so the evidence trail stays
inspectable:

* :func:`gorenstein_report` -- both self-injective dimensions via dual
  resolutions, plus the global dimension,
* :func:`is_gorenstein_projective` -- the Ext-vanishing test with certificate,
* :func:`gp_classification` -- the filtered (and, for triangular contexts,
  analytic) list of indecomposable GP modules within a dimension bound,
* relative notions against the list: right approximations, proper two-term
  presentations, relative exactness, relative derived functors, relative
  generation, and certified relative two-term checks,
* :func:`gorenstein_silting_check` -- whether a module is Gorenstein-silting;
  with ``theta="AUTO"`` it decides "under some presentation" by one check at
  the maximal padding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .exactlinalg import Matrix, rank, reduce_mod_row_space, row_space_basis
from .algebra import Algebra, DomainError, TriangularContext, ValidationError, memoized, opposite_algebra, same_algebra
from .modules import (
    Module,
    ModuleMap,
    Presentation,
    cokernel,
    direct_sum,
    enumerate_indecomposables,
    evaluation_components,
    evaluation_image,
    ext_dim,
    global_dimension,
    hom_cohomology_dim,
    hom_dim,
    hom_space,
    is_isomorphic,
    postcompose_rank,
    precompose_corank,
    projective_dimension,
    regular_module,
    resolution,
    zero_module,
)
from .silting import (
    COPRODUCT_NOTE, direct_sum_presentation, probe_sweep, resolve_presentation, resolve_probes, summand_classes,
    verdict_ladder, zero_target_presentation,
)

GS_VERDICTS = ("gorenstein_silting", "partial_only", "not", "undecided")


# ---------------------------------------------------------------------------
# The report: self-injective dimensions on both sides.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GorensteinReport:
    """Both self-injective dimensions within a bound, plus the global dimension.

    ``None`` in a dimension field means "exceeds bound".  Reports compare by
    identity, so a report passed to :func:`gp_classification` keys its memo."""

    algebra: Algebra
    left_injective_dimension: int | None
    right_injective_dimension: int | None
    global_dimension: int | None
    verdict: str  # "gorenstein" | "not_within_bound"
    bound: int

    def __bool__(self) -> bool:
        return self.verdict == "gorenstein"

    @property
    def injective_dimension(self) -> int:
        """Common checking range; requires a gorenstein verdict."""
        if not self:
            raise DomainError("GP test requires Gorenstein certificate")
        return max(self.left_injective_dimension, self.right_injective_dimension)

    def to_json(self) -> dict:
        def show(v):
            return "exceeds_bound" if v is None else v

        return {
            "left_injective_dimension": show(self.left_injective_dimension),
            "right_injective_dimension": show(self.right_injective_dimension),
            "global_dimension": show(self.global_dimension),
            "verdict": self.verdict,
            "bound": self.bound,
            "algebra_dim": self.algebra.dim,
        }


def _dual_left_regular_over_opposite(alg: Algebra) -> Module:
    """The dual of the left regular module, as a module over the opposite.

    In dual bases the opposite algebra acts through transposed left
    multiplications; its projective dimension is the left self-injective
    dimension of the original algebra.
    """
    action = {}
    for i, lbl in enumerate(alg.labels):
        action[lbl] = alg.left_mult_matrix(alg.basis_vector(i)).transpose()
    return Module(opposite_algebra(alg), alg.dim, action)


def _dual_right_regular(alg: Algebra) -> Module:
    """The dual of the right regular module, as a left module.

    The left action in dual bases is the transposed right multiplication; its
    projective dimension is the right self-injective dimension.
    """
    action = {}
    for i, lbl in enumerate(alg.labels):
        action[lbl] = alg.right_mult_matrix(alg.basis_vector(i)).transpose()
    return Module(alg, alg.dim, action)


@memoized
def gorenstein_report(alg: Algebra, bound: int = 10) -> GorensteinReport:
    """Certify finite self-injective dimension on both sides within ``bound``."""
    if bound < 1:
        raise ValidationError("bound must be at least 1")
    left = projective_dimension(_dual_left_regular_over_opposite(alg), bound)
    right = projective_dimension(_dual_right_regular(alg), bound)
    gl = global_dimension(alg, bound)
    verdict = "gorenstein" if (left is not None and right is not None) else "not_within_bound"
    return GorensteinReport(
        algebra=alg,
        left_injective_dimension=left,
        right_injective_dimension=right,
        global_dimension=gl,
        verdict=verdict,
        bound=bound,
    )


# ---------------------------------------------------------------------------
# GP detection and classification.
# ---------------------------------------------------------------------------


@dataclass
class GpCertificate:
    """Ext-vanishing evidence for one module."""

    holds: bool
    ext_dims: dict
    checked_range: int
    notes: tuple

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "ext_dims": {str(k): v for k, v in self.ext_dims.items()},
            "checked_range": self.checked_range,
            "notes": list(self.notes),
        }


def is_gorenstein_projective(m: Module, report: GorensteinReport | None = None) -> GpCertificate:
    """Ext-vanishing test against the regular module, with certificate.

    Valid over a certified Gorenstein algebra: there the modules with
    Ext^i(m, A) = 0 for 1 <= i <= injective dimension are exactly the ones
    with a complete resolution (which is not finitely checkable directly).
    """
    if report is None:
        report = gorenstein_report(m.algebra)
    if not report:
        raise DomainError("GP test requires Gorenstein certificate")
    d = report.injective_dimension
    reg = regular_module(m.algebra)
    ext_dims = {i: ext_dim(m, reg, i) for i in range(1, max(d, 1) + 1)}
    holds = all(ext_dims[i] == 0 for i in range(1, d + 1))
    notes = []
    if d == 0:
        notes.append("self-injective: empty checking range, every module qualifies")
    return GpCertificate(
        holds=holds,
        ext_dims=ext_dims,
        checked_range=max(d, 1),
        notes=tuple(notes),
    )


@dataclass
class GpClassification:
    """Indecomposable GP modules within a dimension bound, in canonical order.

    The relative evidence that depends only on the list (proper presentations,
    relative generation, the universal map of each left approximation test) is
    memoized in ``_memo`` for the classification's lifetime; a copy made with
    :func:`dataclasses.replace` starts with an empty memo."""

    algebra: Algebra
    dim_bound: int
    modules: list
    complete: bool
    report: GorensteinReport
    notes: tuple
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "dim_bound": self.dim_bound,
            "complete": self.complete,
            "count": len(self.modules),
            "dimension_vectors": [m.dimension_vector() for m in self.modules],
            "report": self.report.to_json(),
            "notes": list(self.notes),
        }


@memoized
def gp_classification(source, dim_bound: int = 4, report: GorensteinReport | None = None) -> GpClassification:
    """Filter the bounded enumeration through the GP test.

    ``source`` is an algebra, or a triangular context satisfying the gluing
    hypotheses -- in the latter case the list is also built analytically from
    the two corner classes and cross-checked against the filtered list.
    """
    if isinstance(source, TriangularContext):
        return _triangular_gp_classification(source, dim_bound, report)
    alg = source
    if report is None:
        report = gorenstein_report(alg)
    if not report:
        raise DomainError("GP classification requires Gorenstein certificate")
    mods = [m for m in enumerate_indecomposables(alg, dim_bound) if is_gorenstein_projective(m, report)]
    return GpClassification(
        algebra=alg,
        dim_bound=dim_bound,
        modules=mods,
        complete=True,
        report=report,
        notes=("filtered enumeration",),
    )


def _triangular_gp_classification(ctx, dim_bound: int, report: GorensteinReport | None) -> GpClassification:
    """Filtered list plus the analytic corner construction, cross-checked."""
    from .recollement import analytic_gp_modules

    base = gp_classification(ctx.gamma, dim_bound, report)
    analytic = analytic_gp_modules(ctx, dim_bound)
    matched_analytic = set()
    for m in base.modules:
        hit = None
        for j, cand in enumerate(analytic):
            if j in matched_analytic:
                continue
            if is_isomorphic(m, cand) is not None:
                hit = j
                break
        if hit is None:
            raise ValidationError(
                "filtered GP module of dimension vector "
                f"{m.dimension_vector()} has no analytic counterpart"
            )
        matched_analytic.add(hit)
    unmatched = [analytic[j].dimension_vector() for j in range(len(analytic)) if j not in matched_analytic]
    if unmatched:
        raise ValidationError(f"analytic GP modules missing from the filtered list: {unmatched}")
    return GpClassification(
        algebra=ctx.gamma,
        dim_bound=dim_bound,
        modules=base.modules,
        complete=True,
        report=base.report,
        notes=base.notes + ("analytic corner cross-check passed",),
    )


# ---------------------------------------------------------------------------
# Relative approximations and presentations.
# ---------------------------------------------------------------------------


def _g_epic(components, gp: GpClassification, needs: Iterable[int]) -> bool:
    """Whether Hom(G, phi) is surjective for every listed G, for phi given by
    its ``components`` as in :func:`postcompose_rank`, given ``needs``, the
    dimensions of Hom(G, target) in the order of ``gp.modules``."""
    for g, need in zip(gp.modules, needs):
        if need and postcompose_rank(g, components) != need:
            return False
    return True


def right_gp_approximation(m: Module, gp: GpClassification) -> ModuleMap:
    """Minimal-by-pruning right approximation of ``m`` from the GP list.

    Starts from the full evaluation map out of every listed module's Hom
    basis (surjective and relatively epic by construction), then deletes
    components in canonical order whenever the deletion preserves both
    surjectivity and relative epimorphy.
    """
    if not gp.complete:
        raise ValidationError("right GP approximation needs a complete classification")
    if not same_algebra(m.algebra, gp.algebra):
        raise ValidationError("module and classification live over different algebras")
    alg = m.algebra
    f = alg.field
    homs = [hom_space(g, m) for g in gp.modules]
    needs = [len(basis) for basis in homs]
    components = [(g, h.matrix) for g, basis in zip(gp.modules, homs) for h in basis]

    def matrix(parts):
        return Matrix.hstack([h for _, h in parts]) if parts else Matrix.zeros(f, m.dim, 0)

    def acceptable(parts):
        return rank(matrix(parts)) == m.dim and _g_epic(parts, gp, needs)

    if not acceptable(components):
        raise ValidationError("evaluation map fails to approximate; classification incomplete?")
    i = 0
    while i < len(components):
        trial = components[:i] + components[i + 1 :]
        if acceptable(trial):
            components = trial
        else:
            i += 1
    src, _, _ = direct_sum([g for g, _ in components], algebra=alg)
    return ModuleMap(src, m, matrix(components))


def proper_gp_presentation(m: Module, gp: GpClassification) -> Presentation:
    """Two-term relative presentation G_1 -> G_0 -> m -> 0 from iterated
    right approximations, certified relatively exact.

    The presentation is memoized on ``gp`` per module: every caller gets the
    same object, and no caller may mutate it."""
    return _proper_gp_presentation(gp, m)


@memoized
def _proper_gp_presentation(gp: GpClassification, m: Module) -> Presentation:
    (phi0, _), (_, d1) = itertools.islice(resolution(m, lambda x: right_gp_approximation(x, gp)), 2)
    pres = Presentation(
        kind="gorenstein_projective",
        map=d1,
        cokernel=m,
        coker_map=phi0,
        certificates={"gp_dim_bound": gp.dim_bound},
    )
    exactness = is_g_exact((d1, phi0), gp)
    if not exactness:
        raise ValidationError("proper presentation failed the relative exactness certificate")
    pres.certificates["g_exact"] = True
    return pres


# ---------------------------------------------------------------------------
# Relative exactness and derived functors.
# ---------------------------------------------------------------------------


@dataclass
class GExactness:
    """Result of a relative-exactness test, with the failing probe if any."""

    holds: bool
    witness: dict | None
    gp_count: int

    def __bool__(self) -> bool:
        return self.holds


def is_g_exact(seq: tuple[ModuleMap, ModuleMap], gp: GpClassification) -> GExactness:
    """Relative exactness of ``X -> Y -> Z -> 0`` (or its short variant).

    Ordinary exactness is checked first and raises a distinct error when it
    fails; then every listed module G must keep the sequence exact under
    Hom(G, -): exact at the middle and surjective at the end.
    """
    fmap, gmap = seq
    if fmap.target is not gmap.source and fmap.target.dim != gmap.source.dim:
        raise ValidationError("maps are not composable")
    composite = gmap.matrix.mul(fmap.matrix)
    if any(x != 0 for row in composite.data for x in row):
        raise ValidationError("sequence is not exact in the ordinary sense (nonzero composite)")
    if not gmap.is_surjective():
        raise ValidationError("sequence is not exact in the ordinary sense (end map not surjective)")
    mid_kernel = gmap.source.dim - rank(gmap.matrix)
    if rank(fmap.matrix) != mid_kernel:
        raise ValidationError("sequence is not exact in the ordinary sense (homology at the middle)")
    for j, g in enumerate(gp.modules):
        rank_f = postcompose_rank(g, [(fmap.source, fmap.matrix)])
        rank_g = postcompose_rank(g, [(gmap.source, gmap.matrix)])
        hom_mid = hom_dim(g, gmap.source)
        hom_end = hom_dim(g, gmap.target)
        if rank_g != hom_end:
            return GExactness(
                holds=False,
                witness={
                    "gp_index": j,
                    "gp_dimension_vector": g.dimension_vector(),
                    "stage": "end_surjectivity",
                    "image_rank": rank_g,
                    "hom_dim": hom_end,
                },
                gp_count=len(gp.modules),
            )
        if rank_f != hom_mid - rank_g:
            return GExactness(
                holds=False,
                witness={
                    "gp_index": j,
                    "gp_dimension_vector": g.dimension_vector(),
                    "stage": "middle_exactness",
                    "image_rank": rank_f,
                    "kernel_dim": hom_mid - rank_g,
                },
                gp_count=len(gp.modules),
            )
    return GExactness(holds=True, witness=None, gp_count=len(gp.modules))


def gext_dim(m: Module, n: Module, i: int, gp: GpClassification) -> int:
    """Dimension of the degree-``i`` relative derived functor of Hom(-, n).

    Computed from the proper relative resolution of ``m`` to length i+1, by
    the same cochain count as :func:`~silting_forge.modules.ext_dim`.
    """
    if i < 0:
        raise ValidationError("degree must be non-negative")
    if i == 0:
        return hom_dim(m, n)
    return hom_cohomology_dim(resolution(m, lambda x: right_gp_approximation(x, gp)), n, i)


# ---------------------------------------------------------------------------
# Relative generation and membership.
# ---------------------------------------------------------------------------


def gen_g_contains(t: Module, m: Module, gp: GpClassification) -> bool:
    """Whether ``m`` admits a relatively epic surjection from Add(t).

    Every map t -> m is a combination of the Hom(t, m) basis, so the
    evaluation map out of t^(dim Hom(t, m)) is universal: any relative epi
    from Add(t) factors through it.  It is tested without being built: it is
    onto when :func:`~.modules.evaluation_image` spans m, and relatively epic
    when, for every listed G, the :func:`~.modules.evaluation_components`
    (X_k, h) composed with the maps G -> X_k span Hom(G, m).  The answer is
    memoized on ``gp`` per (t, m): it is shared, and no caller may mutate it.
    """
    return _gen_g_contains(gp, t, m)


@memoized
def _gen_g_contains(gp: GpClassification, t: Module, m: Module) -> bool:
    if not gp.complete:
        raise ValidationError("relative generation needs a complete classification")
    if evaluation_image(t, m).nrows != m.dim:
        return False
    return _g_epic(evaluation_components(t, m), gp, (hom_dim(g, m) for g in gp.modules))


def d_theta_contains(theta: Presentation, m: Module) -> bool:
    """Membership in the class of a relative (GP-kind) two-term presentation."""
    if not isinstance(theta, Presentation) or theta.kind != "gorenstein_projective":
        raise ValidationError("membership test needs a gorenstein_projective-kind presentation")
    if not same_algebra(theta.map.source.algebra, m.algebra):
        raise ValidationError("membership test needs a module over the same algebra")
    return precompose_corank(theta.map, m) == 0


# ---------------------------------------------------------------------------
# Left approximation sequences (the sufficiency route).
# ---------------------------------------------------------------------------


@dataclass
class LeftApproximationSequence:
    """A relative sequence p -> T_0 -> T_{-1} -> 0 with the probe certificate."""

    found: bool
    gp_module: Module
    phi: ModuleMap | None
    psi: ModuleMap | None
    probes_checked: int
    detail: dict

    def __bool__(self) -> bool:
        return self.found

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "gp_dimension_vector": self.gp_module.dimension_vector(),
            "middle_dim": self.phi.target.dim if self.phi is not None else None,
            "end_dim": self.psi.target.dim if self.psi is not None else None,
            "probes_checked": self.probes_checked,
            "detail": self.detail,
        }


def _in_add(q: Module, parts: list[Module]) -> bool:
    """Whether q lies in add(T), the sums of summands of sums of the given
    modules T_i: whether id_q lies in the span of the composites h∘g over
    g in Hom(q, T_i) and h in Hom(T_i, q).  If q is a summand of some T' in
    add(T), id_q factors through T', a sum of copies of the T_i, so it is a
    sum of such composites.  Conversely, id_q = Σ_k h_k∘g_k makes q a summand
    of ⊕_k T_{i_k} through (g_k)_k and (h_k)_k (Auslander–Reiten–Smalø,
    *Representation Theory of Artin Algebras*, Ch. II).  q is not decomposed."""
    f, n = q.algebra.field, q.dim
    composites = [
        list(itertools.chain.from_iterable(h.matrix.mul(g.matrix).data))
        for part in parts for g in hom_space(q, part) for h in hom_space(part, q)
    ]
    identity = itertools.chain.from_iterable(Matrix.identity(f, n).data)
    return not any(reduce_mod_row_space(identity, row_space_basis(composites, f, n * n)))


class _UniversalApproximation:
    """The universal map phi: p -> T_0 = ⊕ T_i^(dim Hom(p, T_i)) over the
    summand classes T_i of t (:func:`~.silting.summand_classes`, read off the
    summands recorded for t), whose components are the Hom-basis maps
    p -> T_i (the zero map p -> 0 when there are none), with its cokernel.

    ``middle_dim`` and ``end_dim`` are the dimensions of T_0 and of the
    cokernel, before ``transport``; ``phi`` and ``cmap`` (the cokernel map)
    are kept, after it, only when the cokernel lies in Add(t).  G-exactness
    and the restrictions onto Hom(-, U) are computed on first use and kept."""

    def __init__(self, p: Module, t: Module, transport=None):
        alg = p.algebra
        parts = summand_classes(t)
        columns = [(part, h.matrix) for part in parts for h in hom_space(p, part)]
        if columns:
            t0, _, _ = direct_sum([part for part, _ in columns], algebra=alg)
            phi = ModuleMap(p, t0, Matrix.vstack([h for _, h in columns]))
        else:
            t0 = zero_module(alg)
            phi = ModuleMap(p, t0, Matrix.zeros(alg.field, 0, p.dim))
        coker, cmap = cokernel(phi)
        self.middle_dim, self.end_dim = t0.dim, coker.dim
        self.phi = self.cmap = None
        if _in_add(coker, parts):
            self.phi, self.cmap = (transport(phi), transport(cmap)) if transport is not None else (phi, cmap)
        self._g_exact: bool | None = None
        self._restricts: dict = {}

    def g_exact(self, gp: GpClassification) -> bool:
        if self._g_exact is None:
            self._g_exact = bool(is_g_exact((self.phi, self.cmap), gp))
        return self._g_exact

    def restricts(self, u: Module) -> bool:
        """Whether Hom(T_0, U) -> Hom(p, U), precomposition with phi, is onto."""
        if u not in self._restricts:
            self._restricts[u] = precompose_corank(self.phi, u) == 0
        return self._restricts[u]


@memoized
def _universal_approximation(gp: GpClassification, p: Module, t: Module, transport=None) -> _UniversalApproximation:
    return _UniversalApproximation(p, t, transport)


def left_approximation_sequence(
    p: Module,
    t: Module,
    theta: Presentation,
    gp: GpClassification,
    class_probes: list | None = None,
    transport=None,
) -> LeftApproximationSequence:
    """Test the universal map p -> T_0 -> T_{-1} -> 0 for a sequence that is
    relatively exact, with T_i in Add(t), whose first map restricts
    surjectively on Hom(-, U) for every probe U in the class of theta.

    ``class_probes`` are the probes already known to lie in theta's class, so
    callers that test several modules against one theta filter once;
    by default they are the indecomposables of dimension at most
    ``gp.dim_bound`` that lie in it (none over the rationals).

    The universal map p -> ⊕ T_i^(dim Hom(p, T_i)), over the summand classes
    T_i of t, has the Hom-basis maps as its components, so it is a left
    add(t)-approximation.  Every left add(t)-approximation is the minimal
    one plus a split summand (Krause–Saorín, *On minimal approximations of
    modules*, 1998), so when t lies in theta's class the universal map
    passes the four tests exactly when some left add(t)-approximation does,
    and it is the one map tested.  A map that is not one fails to restrict
    onto Hom(-, t), which a left approximation into a class holding t must
    do.

    ``transport`` (default: identity) carries maps over p's algebra to the
    algebra of theta and gp; the map is built before it and tested after
    it, and ``detail`` records its dimensions before it.

    The evidence that does not involve theta (the cokernel, its membership
    in Add(t), G-exactness and the restrictions onto the probes) is memoized
    on ``gp`` per (p, t, transport), so one embedding should be passed as one
    hashable object; only the two tests that read theta, T_0 in its class
    and which probes are in it, run on every call.
    """
    if class_probes is None:
        class_probes = [u for u in resolve_probes(gp.algebra, None, gp.dim_bound, []) if d_theta_contains(theta, u)]
    cand = _universal_approximation(gp, p, t, transport)
    found = (
        cand.phi is not None
        # A left approximation must land inside the class it approximates to.
        and d_theta_contains(theta, cand.phi.target)
        and cand.g_exact(gp)
        and all(cand.restricts(u) for u in class_probes)
    )
    return LeftApproximationSequence(
        found=found,
        gp_module=p,
        phi=cand.phi if found else None,
        psi=cand.cmap if found else None,
        probes_checked=len(class_probes),
        detail={"middle_dim": cand.middle_dim, "end_dim": cand.end_dim} if found else {},
    )


# ---------------------------------------------------------------------------
# The certified relative two-term check.
# ---------------------------------------------------------------------------


@dataclass
class GorensteinSiltingCertificate:
    """Outcome of comparing relative generation with a relative presentation class."""

    module: Module
    presentation: Presentation
    verdict: str
    probes: list
    mismatch: dict | None
    approximations: list
    notes: tuple

    def __bool__(self) -> bool:
        return self.verdict == "gorenstein_silting"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "module": {
                "dim": self.module.dim,
                "dimension_vector": self.module.dimension_vector(),
            },
            "presentation": {
                "kind": self.presentation.kind,
                "g1_dim": self.presentation.map.source.dim,
                "g0_dim": self.presentation.map.target.dim,
            },
            "probes": self.probes,
            "mismatch": self.mismatch,
            "approximations": [a.to_json() for a in self.approximations],
            "notes": list(self.notes),
        }


def _maximal_padding(t: Module, gp: GpClassification) -> Presentation:
    """θ_max, the automatic presentation of :func:`gorenstein_silting_check`."""
    blocks = [proper_gp_presentation(t, gp)] + [
        zero_target_presentation(g, "gorenstein_projective") for g in gp.modules if hom_dim(g, t) == 0
    ]
    return direct_sum_presentation(blocks, algebra=t.algebra) if len(blocks) > 1 else blocks[0]


def gorenstein_silting_check(
    t: Module,
    theta="AUTO",
    gp: GpClassification | None = None,
    probe=None,
) -> GorensteinSiltingCertificate:
    """Certified comparison of Gen_G(t) with the class of ``theta``.

    Runs the self-membership gate, the probe sweep over both memberships, and
    the sufficiency route: for every listed GP indecomposable, the universal
    map into add(t) must give a left approximation sequence.  The
    presentation, the probes (an int ``probe`` bounds their dimension, as
    ``gp.dim_bound`` does for None), the sweep and the verdict come from the
    two-term engine of :func:`~.silting.silting_check`, so a mismatch is
    decisive unless the sufficiency route simultaneously completes, which is
    a contradiction and yields ``undecided``.

    ``theta="AUTO"`` is the maximal padding θ_max: the proper presentation
    of ``t`` plus ``G -> 0`` for every listed GP module G with Hom(G, t) = 0.
    Padding by G cuts D_θ down to the M with Hom(G, M) = 0, which holds
    Gen_G t, so if any padding certifies ``t``, θ_max does (compare
    Adachi–Iyama–Reiten, arXiv:1210.1036, on the projective complement).
    """
    if gp is None:
        gp = gp_classification(t.algebra)
    notes: list = [COPRODUCT_NOTE]
    auto = ("presentation: automatic maximal padding of the proper relative presentation", lambda m: _maximal_padding(m, gp))
    theta_pres = resolve_presentation(t, theta, "gorenstein_projective", auto, notes)
    probe_list = resolve_probes(t.algebra, probe, gp.dim_bound, notes)

    in_d = d_theta_contains(theta_pres, t)
    in_class = [d_theta_contains(theta_pres, u) for u in probe_list]
    sweep = [(u.dim, u.dimension_vector(), du, gen_g_contains(t, u, gp))
             for u, du in zip(probe_list, in_class)] if in_d else None
    probes, mismatch = probe_sweep(sweep, ("in_d_theta", "in_gen_g"), notes)

    class_probes = [u for u, du in zip(probe_list, in_class) if du]
    approximations = [
        left_approximation_sequence(g, t, theta_pres, gp, class_probes) for g in gp.modules
    ]
    missing = [a.gp_module.dimension_vector() for a in approximations if not a.found]
    fallback = ("partial_only", f"no approximation sequence found for GP modules {missing}")
    verdict = verdict_ladder(GS_VERDICTS, in_d, mismatch, not missing, "sufficiency", fallback, notes)

    return GorensteinSiltingCertificate(
        module=t,
        presentation=theta_pres,
        verdict=verdict,
        probes=probes,
        mismatch=mismatch,
        approximations=approximations,
        notes=tuple(notes),
    )
