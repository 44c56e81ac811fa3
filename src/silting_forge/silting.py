"""Certified two-term presentation checks, enumeration, and tensor transport.

A two-term map sigma between projective modules determines a membership
class: the modules receiving a surjective Hom-restriction along sigma.  A
module together with a presentation is *silting* when that class coincides
with the class of quotients of finite sums of the module, *partial* when it
only sits inside its own class.  This module provides:

* :func:`d_sigma_contains` / :func:`gen_contains` -- the two membership
  tests, checked wrappers of :func:`~.modules.precompose_corank` (Hom(sigma,
  M) onto: corank 0) and :func:`~.modules.evaluation_image` (the images of
  all maps T -> M span M),
* :func:`silting_check` -- a certificate comparing the classes for a module
  with a chosen (or automatically minimal) presentation.  It and
  :func:`~.gorenstein.gorenstein_silting_check` share one two-term engine:
  :func:`resolve_presentation` (the automatic presentation or a checked
  supplied one), :func:`resolve_probes`, the sweep of :func:`probe_sweep`
  and the verdict ladder :func:`verdict_ladder`,
* :func:`enumerate_silting` -- exhaustive enumeration over a finite field.
  It gathers the minimal presentation σ_i and the probe sweep once per rigid
  indecomposable T_i and reads each candidate ⊕T_i off them: Hom out of a
  block-diagonal presentation is block diagonal, Gen(⊕T_i) is spanned by
  the images of the Hom(T_i, -), τ-compatibility is read off Hom(σ_i, T_j)
  (onto iff Hom(T_j, τT_i) = 0), kernel-top multiplicities add, and
  Hom(P_v, t) = e_v t; τ itself is never built.  A result keeps its blocks
  and builds its module and presentation only when a caller reads them,
* :func:`silting_module_verdict` -- whether a module is silting at all,
  that is support τ-tilting (Adachi–Iyama–Reiten),
* :func:`tensor_silting` -- the induced presentation of an outer tensor
  product over a tensor-product algebra, with a comparison report.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field as dc_field

from .exactlinalg import Matrix, nullspace, rank, row_space_basis
from .algebra import Algebra, DomainError, ValidationError, derive_algebra, memoized, same_algebra
from .modules import (
    Module,
    ModuleMap,
    Presentation,
    UndecidedError,
    cokernel,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    evaluation_image,
    hom_dim,
    indecomposable_iso,
    indecomposable_projectives,
    is_isomorphic,
    is_projective,
    minimal_projective_presentation,
    precompose_corank,
    quotient_module,
    summands,
    tensor_over_field,
    zero_module,
)

#: Static justification recorded in every certificate: the membership class of
#: a two-term map between finitely generated projectives is closed under
#: arbitrary coproducts because maps out of a finitely generated module factor
#: through a finite subsum.  This is a structural fact, not re-tested per run.
COPRODUCT_NOTE = (
    "coproduct closure: holds for every two-term class because both "
    "presentation terms are finitely generated, so Hom out of them commutes "
    "with direct sums (static fact, not re-tested)"
)

VERDICTS = ("silting", "partial_silting_only", "not_silting", "undecided")


# ---------------------------------------------------------------------------
# Membership tests.
# ---------------------------------------------------------------------------


def d_sigma_contains(sigma, m: Module) -> bool:
    """Membership of ``m`` in the class of the two-term map ``sigma``.

    ``sigma`` may be a projective-kind :class:`Presentation` or a
    :class:`ModuleMap` between projective modules.
    """
    if isinstance(sigma, Presentation):
        if sigma.kind != "projective":
            raise ValidationError(f"membership test needs a projective-kind presentation, got {sigma.kind!r}")
        sigma = sigma.map
    elif not isinstance(sigma, ModuleMap):
        raise ValidationError("expected a Presentation or a ModuleMap between projectives")
    elif not (is_projective(sigma.source) and is_projective(sigma.target)):
        raise ValidationError("membership test needs a map between projective modules")
    if not same_algebra(sigma.source.algebra, m.algebra):
        raise ValidationError("membership test needs a module over the same algebra")
    return precompose_corank(sigma, m) == 0


def gen_contains(t: Module, m: Module) -> bool:
    """Whether ``m`` is a quotient of a finite direct sum of copies of ``t``."""
    if not same_algebra(t.algebra, m.algebra):
        raise ValidationError("generation test needs modules over the same algebra")
    return evaluation_image(t, m).nrows == m.dim


# ---------------------------------------------------------------------------
# Presentation constructors.
# ---------------------------------------------------------------------------


def presentation_from_map(smap: ModuleMap) -> Presentation:
    """Wrap a map between projectives as a presentation of its cokernel."""
    if not (is_projective(smap.source) and is_projective(smap.target)):
        raise ValidationError("presentation terms must be projective")
    coker, cmap = cokernel(smap)
    return Presentation(
        kind="projective",
        map=smap,
        cokernel=coker,
        coker_map=cmap,
        certificates={"cokernel_computed": True},
    )


def direct_sum_presentation(parts: list[Presentation], algebra: Algebra | None = None) -> Presentation:
    """Block-diagonal direct sum of presentations of the same kind."""
    if not parts:
        raise ValidationError("empty presentation sum needs at least one part")
    kind = parts[0].kind
    if any(p.kind != kind for p in parts):
        raise ValidationError("cannot sum presentations of different kinds")
    alg = parts[0].map.source.algebra
    f = alg.field
    src, _, _ = direct_sum([p.map.source for p in parts], algebra=algebra or alg)
    tgt, _, _ = direct_sum([p.map.target for p in parts], algebra=algebra or alg)
    cok, _, _ = direct_sum([p.cokernel for p in parts], algebra=algebra or alg)
    mat = Matrix.block_diag(f, [p.map.matrix for p in parts])
    cmat = Matrix.block_diag(f, [p.coker_map.matrix for p in parts])
    return Presentation(
        kind=kind,
        map=ModuleMap(src, tgt, mat),
        cokernel=cok,
        coker_map=ModuleMap(tgt, cok, cmat),
        certificates={"summands": len(parts)},
    )


def zero_target_presentation(q: Module, kind: str = "projective") -> Presentation:
    """The presentation Q -> 0 of the zero module, of the given ``kind``; its
    class holds the modules M with Hom(Q, M) = 0."""
    f = q.algebra.field
    z = zero_module(q.algebra)
    return Presentation(
        kind=kind,
        map=ModuleMap(q, z, Matrix.zeros(f, 0, q.dim), check=False),
        cokernel=z,
        coker_map=ModuleMap(z, z, Matrix.zeros(f, 0, 0), check=False),
    )


def presentation_with_complement(t: Module, complement: list[Module]) -> Presentation:
    """Minimal presentation of ``t`` summed with ``Q -> 0`` for each complement."""
    if not all(is_projective(q) for q in complement):
        raise ValidationError("complement summands must be projective")
    parts = [minimal_projective_presentation(t)] + [zero_target_presentation(q) for q in complement]
    return direct_sum_presentation(parts, algebra=t.algebra)


def kernel_top_multiplicities(smap: ModuleMap) -> dict[str, int]:
    """Per-vertex multiplicity of the kernel of ``smap`` modulo the radical.

    Reading the kernel through the top of the source identifies which vertex
    projectives occur as direct summands of the source killed by the map.
    """
    p1 = smap.source
    alg = p1.algebra
    labels = [lbl for lbl, _ in alg.idempotents]
    if p1.dim == 0:
        return {lbl: 0 for lbl in labels}
    kcols = nullspace(smap.matrix)
    if not kcols.ncols:
        return {lbl: 0 for lbl in labels}
    top, proj = quotient_module(p1, p1.radical_columns())
    img = proj.matrix.mul(kcols)
    return {lbl: rank(top.act(evec).mul(img)) for lbl, evec in alg.idempotents}


# ---------------------------------------------------------------------------
# The certificate.
# ---------------------------------------------------------------------------


@dataclass
class SiltingCertificate:
    """Outcome of comparing a module's generation class with its presentation class.

    ``verdict`` is one of :data:`VERDICTS`.  ``support`` holds the rigidity
    certificate data (kernel complement multiplicities and the class count);
    ``probes`` records the per-probe membership sweep; ``mismatch`` is the
    first witness separating the two classes, if any.

    ``presentation`` is the block-diagonal sum of ``blocks``.
    :func:`silting_check` hands in the presentation it checked, as the one
    block, and its module.  A result of :func:`enumerate_silting` holds only
    its blocks -- the minimal presentations of its summands, then the
    ``Q_v -> 0`` complement blocks -- and builds its presentation on first
    read of ``presentation`` or ``module``, through
    :func:`direct_sum_presentation`; ``module`` is then that presentation's
    cokernel.  :meth:`to_json` sums its sizes over the blocks and builds
    nothing.
    """

    algebra: Algebra
    blocks: tuple
    verdict: str
    tau_rigid: bool | None
    support: dict
    probes: list
    mismatch: dict | None
    notes: tuple
    _module: Module | None = dc_field(default=None, repr=False)
    _presentation: Presentation | None = dc_field(default=None, repr=False)

    @property
    def presentation(self) -> Presentation:
        if self._presentation is None:
            self._presentation = direct_sum_presentation(list(self.blocks), algebra=self.algebra)
        return self._presentation

    @property
    def module(self) -> Module:
        if self._module is None:
            self._module = self.presentation.cokernel
        return self._module

    def __bool__(self) -> bool:
        return self.verdict == "silting"

    def to_json(self) -> dict:
        # The sum's dimension vector is the sum of its blocks' cokernels'.
        dvec = {lbl: 0 for lbl, _ in self.algebra.idempotents}
        for b in self.blocks:
            for lbl, d in b.cokernel.dimension_vector().items():
                dvec[lbl] += d
        return {
            "verdict": self.verdict,
            "module": {
                "dim": sum(b.cokernel.dim for b in self.blocks),
                "dimension_vector": dvec,
            },
            "presentation": {
                "kind": self.blocks[0].kind,
                "p1_dim": sum(b.map.source.dim for b in self.blocks),
                "p0_dim": sum(b.map.target.dim for b in self.blocks),
            },
            "tau_rigid": self.tau_rigid,
            "support": self.support,
            "probes": self.probes,
            "mismatch": self.mismatch,
            "notes": list(self.notes),
        }


_SUPPLIED_PRESENTATION = "presentation: supplied"


# ---------------------------------------------------------------------------
# The two-term engine of silting_check and gorenstein_silting_check.
# ---------------------------------------------------------------------------


def resolve_presentation(t: Module, sigma, kind: str, auto: tuple, notes: list) -> Presentation:
    """The presentation a two-term check reads.  For ``sigma`` "AUTO" it is
    the check's automatic one, ``auto`` = (note, builder applied to ``t``);
    otherwise ``sigma`` is supplied and must be a :class:`Presentation` of
    ``kind`` that presents ``t``."""
    if isinstance(sigma, str) and sigma.upper() == "AUTO":
        note, build = auto
        notes.append(note)
        return build(t)
    if not isinstance(sigma, Presentation) or sigma.kind != kind:
        raise ValidationError(f"two-term check needs a {kind}-kind presentation")
    if is_isomorphic(sigma.cokernel, t) is None:
        raise ValidationError("supplied presentation does not present the given module")
    notes.append(_SUPPLIED_PRESENTATION)
    return sigma


def resolve_probes(alg: Algebra, probe, dim_bound: int, notes: list,
                   rational_note: str = "probe sweep unavailable over the rationals") -> list:
    """The probes of a sweep: a supplied list, or every indecomposable of
    dimension at most ``probe`` (an int) or ``dim_bound`` (``probe`` None).
    Over the rationals there is no enumeration: an int raises, and None
    gives no probes and ``rational_note``."""
    if probe is None:
        if alg.field.kind != "prime":
            notes.append(rational_note)
            return []
        probe = dim_bound
    if isinstance(probe, int):
        if alg.field.kind != "prime":
            raise DomainError("probe enumeration requires a finite field")
        notes.append(f"probe sweep: all indecomposables of dimension <= {probe}")
        return enumerate_indecomposables(alg, probe)
    notes.append("probe sweep: supplied probe list")
    return list(probe)


def probe_sweep(sweep, keys: tuple, notes: list) -> tuple[list, dict | None]:
    """The probe records and the first mismatch of a sweep.  ``sweep`` holds
    (dim, dimension vector, in the presentation class, generated by t) per
    probe, or is None when t lies outside its own presentation class, and
    then the witness is the presented module.  ``keys`` name the two
    memberships in the records."""
    in_class, in_gen = keys
    if sweep is None:
        notes.append("probe sweep skipped: module outside its own presentation class")
        return [], {"witness": "presented module", in_class: False, in_gen: True}
    probes: list = []
    mismatch: dict | None = None
    for idx, (dim, dvec, dm, gm) in enumerate(sweep):
        rec = {"index": idx, "dim": dim, "dimension_vector": dvec, in_class: dm, in_gen: gm, "agree": dm == gm}
        probes.append(rec)
        if dm != gm and mismatch is None:
            mismatch = {k: v for k, v in rec.items() if k != "agree"}
    return probes, mismatch


def verdict_ladder(verdicts: tuple, in_own_class: bool, mismatch: dict | None, certified: bool, certificate: str,
                   fallback: tuple, notes: list) -> str:
    """The verdict ladder, the one place a two-term verdict is decided.

    ``verdicts`` names the certified, partial, negative and undecided
    outcomes (:data:`VERDICTS`, or :data:`~.gorenstein.GS_VERDICTS`).  A
    module outside its own presentation class is negative.  A probe
    ``mismatch`` is decisive unless the ``certificate`` evidence completes
    (``certified``): the two then contradict each other, and the verdict is
    undecided.  With no mismatch, complete evidence certifies; short of it
    the side's reading is ``fallback`` = (verdict, note or None).
    """
    good, _, bad, undecided = verdicts
    if not in_own_class:
        return bad
    if mismatch is not None:
        if not certified:
            return bad
        notes.append(f"probe mismatch conflicts with a complete {certificate} certificate")
        return undecided
    if certified:
        return good
    verdict, note = fallback
    if note:
        notes.append(note)
    return verdict


def _certificate(
    alg: Algebra,
    blocks: tuple,
    notes: list,
    sweep: list | None,
    hom_to_translate: int,
    mults: dict[str, int],
    hom_vanish: bool,
    classes_t: int | None,
    *,
    module: Module | None = None,
    presentation: Presentation | None = None,
) -> SiltingCertificate:
    """The absolute certificate: the rigidity evidence, the records of
    :func:`probe_sweep` and the verdict of :func:`verdict_ladder`.

    The module t under test is presented by the block sum of ``blocks``
    over ``alg``; ``module`` and ``presentation``, when given, are t and
    that presentation, already built.  ``sweep`` is as in
    :func:`probe_sweep`.  ``hom_to_translate`` is dim Hom(t, tau t);
    ``mults`` the kernel-top multiplicities of the presentation map;
    ``hom_vanish`` whether Hom(P_v, t) is zero at every vertex v of positive
    multiplicity; ``classes_t`` the number of isoclasses of summands of
    ``t``, None when the decomposition was undecided.  The rigidity
    certificate completes when all three hold and the class count fills the
    vertex count.
    """
    probes, mismatch = probe_sweep(sweep, ("in_d_sigma", "in_gen"), notes)
    if classes_t is None:
        notes.append("decomposition undecided; class count unavailable")

    tau_rigid = hom_to_translate == 0
    classes_q = sum(1 for lbl, _ in alg.idempotents if mults[lbl] > 0)
    nverts = len(alg.idempotents)
    count_ok = classes_t is not None and classes_t + classes_q == nverts
    support = {
        "complement_multiplicities": mults,
        "complement_classes": classes_q,
        "module_classes": classes_t,
        "vertex_count": nverts,
        "count_identity": bool(count_ok),
        "hom_complement_vanishes": hom_vanish,
        "hom_to_translate_dim": hom_to_translate,
    }
    if classes_t is None:
        fallback = ("undecided", None)
    elif tau_rigid:
        fallback = ("partial_silting_only", None)
    else:
        # Self-membership passed yet rigidity failed: these are equivalent for
        # a minimal-or-padded two-term map, so the evidence is inconsistent.
        fallback = ("undecided", "self-membership passed but rigidity failed; evidence inconsistent")
    certified = tau_rigid and hom_vanish and count_ok
    verdict = verdict_ladder(VERDICTS, sweep is not None, mismatch, certified, "rigidity", fallback, notes)

    return SiltingCertificate(
        algebra=alg,
        blocks=blocks,
        verdict=verdict,
        tau_rigid=tau_rigid,
        support=support,
        probes=probes,
        mismatch=mismatch,
        notes=tuple(notes),
        _module=module,
        _presentation=presentation,
    )


def _projective_presentation(t: Module, sigma, notes: list) -> Presentation:
    """The presentation of the absolute check: the minimal one for "AUTO"
    or None, else the supplied one; a map between projectives is wrapped by
    :func:`presentation_from_map`."""
    if isinstance(sigma, ModuleMap):
        sigma = presentation_from_map(sigma)
    auto = ("presentation: automatic minimal", minimal_projective_presentation)
    return resolve_presentation(t, "AUTO" if sigma is None else sigma, "projective", auto, notes)


def silting_check(t: Module, sigma="AUTO", probe=None, *, dim_bound: int = 3) -> SiltingCertificate:
    """Compare the generation class of ``t`` with the class of its presentation.

    Gathers the evidence: the self-membership gate (the module must lie in
    its own presentation class), the probe sweep comparing both memberships
    on every probe, and the rigidity certificate (Hom into the translate
    vanishes, the kernel complement misses the module, and the class count
    fills the vertex count).  dim Hom(t, tau t) is the corank of Hom(sigma_t,
    t) at the minimal presentation sigma_t of t, so tau is never built; when
    the presentation is automatic, that corank is also the self-membership
    gate, and otherwise it is read off the summands of t
    (:func:`_hom_to_translate_dim`).  An int ``probe`` bounds the dimension
    of the probes, as ``dim_bound`` does for None.  :func:`_certificate`
    then decides the verdict; :func:`enumerate_silting` gathers the same
    evidence from per-summand facts and goes through the same ladder.
    """
    alg = t.algebra
    notes: list = [COPRODUCT_NOTE]
    pres = _projective_presentation(t, sigma, notes)
    probe_list = resolve_probes(
        alg, probe, dim_bound, notes, "probe sweep unavailable over the rationals; verdict rests on the rigidity certificate alone"
    )
    if _SUPPLIED_PRESENTATION in notes:
        hom_to_translate = _hom_to_translate_dim(t)
        in_own_class = d_sigma_contains(pres, t)
    else:
        # pres.map is σ_t, so its corank is dim Hom(t, τt) and the
        # self-membership gate; reading it off the summands would build σ_t a
        # second time for a module that records none.
        hom_to_translate = precompose_corank(pres.map, t)
        in_own_class = hom_to_translate == 0
    sweep = [(u.dim, u.dimension_vector(), d_sigma_contains(pres, u), gen_contains(t, u))
             for u in probe_list] if in_own_class else None
    mults = kernel_top_multiplicities(pres.map)
    hom_vanish = all(hom_dim(p, t) == 0 for p, lbl in indecomposable_projectives(alg) if mults[lbl] > 0)
    return _certificate(
        alg, (pres,), notes, sweep, hom_to_translate, mults, hom_vanish, _class_count(t),
        module=t, presentation=pres,
    )


def _hom_to_translate_dim(t: Module) -> int:
    """dim Hom(t, τt), read off the summands t_k recorded for ``t`` (see
    :func:`~.modules.summands`; or ``t`` itself).  τ is additive, so it is
    the sum over k and l of dim Hom(t_k, τt_l), the corank of Hom(σ_l, t_k)
    at the minimal presentation σ_l of t_l (Adachi–Iyama–Reiten,
    arXiv:1210.1036, Prop. 2.4).  Each σ_l is built once per module, and τ
    never is."""
    parts = collections.Counter(x for x, _ in summands(t))
    return sum(a * b * precompose_corank(_minimal_map(y), x) for x, a in parts.items() for y, b in parts.items())


def _minimal_map(t: Module) -> ModuleMap:
    """The map σ_t of :func:`~.modules.minimal_projective_presentation`,
    built once per module."""
    source, target, matrix = _minimal_terms(t)
    return ModuleMap(t if source is None else source, t if target is None else target, matrix, check=False)


@memoized
def _minimal_terms(t: Module) -> tuple:
    """The source, target and matrix of σ_t, with None for a term that is
    ``t`` itself (a projective t, or 0).  The memo on ``t`` then refers to
    nothing that refers to ``t``, so they form no reference cycle."""
    sigma = minimal_projective_presentation(t).map
    return (None if sigma.source is t else sigma.source), (None if sigma.target is t else sigma.target), sigma.matrix


def summand_classes(t: Module) -> list[Module]:
    """One representative of each isoclass of indecomposable summands of
    ``t``, in the order found.  By Krull–Schmidt they are the classes among
    the parts of :func:`~.modules.decompose` of each summand recorded for
    ``t`` (see :func:`~.modules.summands`), so End of a recorded sum is never
    solved; with nothing recorded they are the parts of ``decompose(t)``.
    Raises :class:`~.modules.UndecidedError` when decompose does."""
    reps: list[Module] = []
    for x, _ in summands(t):
        for part, _, _ in decompose(x):
            if not any(r is part or indecomposable_iso(r, part) is not None for r in reps):
                reps.append(part)
    return reps


def _class_count(t: Module) -> int | None:
    """The number of :func:`summand_classes` of ``t``, None when undecided."""
    try:
        return len(summand_classes(t))
    except UndecidedError:
        return None


# ---------------------------------------------------------------------------
# Is a module silting.
# ---------------------------------------------------------------------------


def _support_tau_tilting(t: Module, hom_to_translate: int, classes: int | None) -> dict:
    """The one ladder for "is ``t`` a silting module".

    ``t`` is silting iff it is support τ-tilting (Adachi–Iyama–Reiten,
    arXiv:1210.1036, Thm 3.2): dim Hom(t, τt) = ``hom_to_translate`` is 0
    and its ``classes`` isoclasses of summands match its supported vertices.
    A τ-rigid ``t`` with fewer is ``partial_silting_only``; ``classes`` None
    (an undecided decomposition) gives ``undecided``.
    """
    supported = sum(1 for d in t.dimension_vector().values() if d > 0)
    if hom_to_translate:
        verdict = "not_silting"
    elif classes is None:
        verdict = "undecided"
    elif classes == supported:
        verdict = "silting"
    else:
        verdict = "partial_silting_only"
    return {
        "verdict": verdict,
        "hom_to_translate_dim": hom_to_translate,
        "summand_classes": classes,
        "supported_vertices": supported,
    }


def silting_module_verdict(t: Module) -> dict:
    """Whether ``t`` is silting under some presentation: the JSON-ready
    verdict of :func:`_support_tau_tilting` with the numbers it read.
    dim Hom(t, τt) and the class count are read off the summands of ``t``
    (:func:`_hom_to_translate_dim`, :func:`summand_classes`), so τ is never
    built, and no probe is read."""
    return _support_tau_tilting(t, _hom_to_translate_dim(t), _class_count(t))


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


@dataclass
class _Summand:
    """What :func:`enumerate_silting` reads of one rigid indecomposable T_i,
    gathered once per call: the probes are U_1, ..., U_K."""

    sigma: Presentation  # minimal presentation of T_i
    dims: list[int]      # dim e_v T_i, in idempotent order
    mults: list[int]     # kernel-top multiplicities of sigma, in idempotent order
    onto: list[bool]     # Hom(sigma, U_k) onto, per probe
    images: list[Matrix]  # evaluation_image(T_i, U_k), per probe


def enumerate_silting(alg: Algebra, dim_bound: int = 3, probe=None) -> list[SiltingCertificate]:
    """All silting classes with indecomposable summands of dim <= ``dim_bound``.

    Candidates are sums t = ⊕T_i of pairwise-compatible rigid indecomposables
    (Hom(T_i, tau T_j) = 0, that is Hom(sigma_j, T_i) onto, so tau is never
    built) whose unsupported vertices v supply the projective complement
    Q_v, with as many summands as vertices; their presentation is the sum of
    the minimal presentations sigma_i and of the Q_v -> 0, which is
    isomorphic to the minimal presentation of t padded by the complement.  Every fact the certificate needs is computed once per
    call for each T_i, and per candidate from exact identities:

    * Hom(sigma, M) is block diagonal, so it is onto iff every sigma_i block
      is onto at M and e_v M = 0 at every complement vertex v;
    * M lies in Gen t iff the images of the Hom(T_i, M) span M;
    * Hom(t, tau t) = ⊕ Hom(T_i, tau T_j), which is 0 for a compatible t, and
      then t lies in its own class;
    * kernel-top multiplicities add over the blocks;
    * Hom(P_v, t) = e_v t, read off the dimension vectors;
    * t has one isoclass of summands per T_i, since the pool members are
      pairwise non-isomorphic indecomposables.

    Each candidate goes through the verdict ladder of :func:`silting_check`;
    only ``silting`` verdicts are returned, in deterministic order.  The
    probes are resolved as in :func:`silting_check`, so by default they are
    the pool.  A result holds its blocks, sigma_i and then Q_v -> 0, and
    builds its module and presentation on first read (see
    :class:`SiltingCertificate`), so a caller that only counts or prints
    results builds no sum.
    """
    if alg.field.kind != "prime":
        raise DomainError("enumeration requires a finite field")
    f = alg.field
    labels = [lbl for lbl, _ in alg.idempotents]
    nverts = len(labels)
    pool = enumerate_indecomposables(alg, dim_bound)
    sigmas = [minimal_projective_presentation(m) for m in pool]
    rigid = [i for i, m in enumerate(pool) if precompose_corank(sigmas[i].map, m) == 0]
    probe_notes: list = []
    probe_list = resolve_probes(alg, probe, dim_bound, probe_notes)
    probe_dims = [(u.dim, u.dimension_vector()) for u in probe_list]

    summands: list[_Summand] = []
    for i in rigid:
        sigma = sigmas[i]
        kernel_tops = kernel_top_multiplicities(sigma.map)
        summands.append(
            _Summand(
                sigma=sigma,
                dims=list(pool[i].dimension_vector().values()),
                mults=[kernel_tops[lbl] for lbl in labels],
                onto=[precompose_corank(sigma.map, u) == 0 for u in probe_list],
                images=[evaluation_image(pool[i], u) for u in probe_list],
            )
        )
    # onto_at[a][b] says whether Hom(sigma_a, T_b) is onto, that is whether
    # Hom(T_b, tau T_a) = 0; it holds on the diagonal by rigidity.
    if probe_list is pool:
        onto_at = [[s.onto[j] for j in rigid] for s in summands]
    else:
        onto_at = [[precompose_corank(s.sigma.map, pool[j]) == 0 for j in rigid] for s in summands]
    to_zero = [zero_target_presentation(q) for q, _ in indecomposable_projectives(alg)]

    results: list[SiltingCertificate] = []
    for r in range(nverts + 1):
        for combo in itertools.combinations(range(len(summands)), r):
            if not all(onto_at[a][b] for a in combo for b in combo):
                continue
            parts = [summands[a] for a in combo]
            dims = [sum(s.dims[v] for s in parts) for v in range(nverts)]
            comp = [v for v in range(nverts) if dims[v] == 0]
            if r + len(comp) != nverts:
                continue
            # The Q_v -> 0 blocks present 0, so the cokernel is the direct sum
            # of the parts.
            blocks = tuple([s.sigma for s in parts] + [to_zero[v] for v in comp])
            sweep = []
            for k, (dim, dvec) in enumerate(probe_dims):
                in_d = all(s.onto[k] for s in parts) and all(dvec[labels[v]] == 0 for v in comp)
                spans = [row for s in parts for row in s.images[k].data]
                in_gen = row_space_basis(spans, f, dim).nrows == dim
                sweep.append((dim, dvec, in_d, in_gen))
            # The kernel of Q_v -> 0 is Q_v, whose top is the simple at v.
            mults = {lbl: sum(s.mults[v] for s in parts) + int(v in comp) for v, lbl in enumerate(labels)}
            hom_vanish = all(dims[v] == 0 for v, lbl in enumerate(labels) if mults[lbl] > 0)
            cert = _certificate(
                alg,
                blocks,
                [COPRODUCT_NOTE, _SUPPLIED_PRESENTATION, *probe_notes],
                sweep,
                0,  # Hom(t, tau t): the filter kept only compatible sums
                mults,
                hom_vanish,
                r,
            )
            if cert.verdict == "silting":
                results.append(cert)
    return results


# ---------------------------------------------------------------------------
# Tensor transport.
# ---------------------------------------------------------------------------


def tensor_silting(
    t: Module,
    sigma,
    s: Module,
    eta,
    probe=None,
    tensor_alg: Algebra | None = None,
    dim_bound: int = 2,
):
    """Outer tensor product with its induced two-term data over A (x) B.

    Builds both candidate maps: the termwise map P1(x)Q1 -> P0(x)Q0 and the
    totalized map (P1(x)Q0) + (P0(x)Q1) -> P0(x)Q0, checks which one presents
    the tensor module, and runs :func:`silting_check` against the totalized
    presentation.  Returns ``(module, presentation, certificate, report)``.

    The returned certificate, and the report's ``verdict``, judge the tensor
    module *with the totalized presentation*, which need not be a silting
    presentation even when the module is silting (for the zero module it is
    ``0 -> 0``, whose class holds every module).  The report's
    ``existential_verdict`` answers whether the module is silting at all: the
    ladder of :func:`silting_module_verdict`, fed the dim Hom(module, tau
    module) -- reported as ``hom_to_translate_dim`` -- and the class count
    that the certificate already holds.
    """
    spres = _projective_presentation(t, sigma, [])
    epres = _projective_presentation(s, eta, [])
    a, b = t.algebra, s.algebra
    if tensor_alg is None:
        tensor_alg, _ = derive_algebra(a, "tensor", b=b)
    f = tensor_alg.field
    ts = tensor_over_field(t, s, tensor_alg)

    p1q1 = tensor_over_field(spres.map.source, epres.map.source, tensor_alg)
    p0q0 = tensor_over_field(spres.map.target, epres.map.target, tensor_alg)
    termwise = ModuleMap(p1q1, p0q0, spres.map.matrix.kron(epres.map.matrix))
    termwise_coker, _ = cokernel(termwise)
    termwise_ok = is_isomorphic(termwise_coker, ts) is not None

    p1q0 = tensor_over_field(spres.map.source, epres.map.target, tensor_alg)
    p0q1 = tensor_over_field(spres.map.target, epres.map.source, tensor_alg)
    src, _, _ = direct_sum([p1q0, p0q1], algebra=tensor_alg)
    left_block = spres.map.matrix.kron(Matrix.identity(f, epres.map.target.dim))
    right_block = Matrix.identity(f, spres.map.target.dim).kron(epres.map.matrix)
    total = ModuleMap(src, p0q0, Matrix.hstack([left_block, right_block]))
    cmap = ModuleMap(p0q0, ts, spres.coker_map.matrix.kron(epres.coker_map.matrix))
    pres = Presentation(
        kind="projective",
        map=total,
        cokernel=ts,
        coker_map=cmap,
        certificates={"totalized": True},
    )

    cert = silting_check(ts, pres, probe, dim_bound=dim_bound)
    existential = _support_tau_tilting(ts, cert.support["hom_to_translate_dim"], cert.support["module_classes"])
    report = {
        "termwise_map_presents_tensor_module": termwise_ok,
        "termwise_cokernel_dim": termwise_coker.dim,
        "tensor_module_dim": ts.dim,
        "termwise_shape": [p1q1.dim, p0q0.dim],
        "totalized_shape": [src.dim, p0q0.dim],
        "verdict": cert.verdict,
        "existential_verdict": existential["verdict"],
        "hom_to_translate_dim": existential["hom_to_translate_dim"],
    }
    return ts, pres, cert, report
