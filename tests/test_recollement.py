"""Idempotent recollements, triangular functor dictionary, statement drivers."""

import dataclasses
import gc
import itertools
import weakref
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import F2, quiver_a2, quiver_point, triangular_gamma0

from silting_forge.algebra import Bimodule, ValidationError, build_triangular, compile_quiver_algebra
from silting_forge.exactlinalg import Matrix
from silting_forge.gorenstein import gp_classification, proper_gp_presentation
from silting_forge.io import corpus_load, dump_json, matrix_to_json, module_to_json
from silting_forge.modules import (
    Module,
    ModuleMap,
    Presentation,
    ar_translate,
    direct_sum,
    enumerate_indecomposables,
    ext_dim,
    hom_dim,
    hom_space,
    indecomposable_projectives,
    is_isomorphic,
    minimal_projective_presentation,
    projective_cover,
    regular_module,
    simple_module,
    tensor_map,
    tensor_over_algebra,
    zero_module,
)
from silting_forge import gorenstein, recollement as rmod, silting, suites
from silting_forge.recollement import (
    Triple,
    VerificationReport,
    analytic_gp_modules,
    apply_functor,
    glued_gp_presentation,
    idempotent_recollement,
    random_probe_modules,
    run_adjunction_battery,
    structured_probe_modules,
    triangular_functors,
    triangular_hypotheses,
    triangular_tensor,
    triple_map_to_module_map,
    verify_transfer,
)
from silting_forge.silting import (
    presentation_with_complement,
    silting_check,
    silting_module_verdict,
    zero_target_presentation,
)


@lru_cache(maxsize=None)
def _a2_recollement():
    return idempotent_recollement(compile_quiver_algebra(quiver_a2()), ("e2",))


@lru_cache(maxsize=None)
def _gamma0():
    return triangular_gamma0()


@pytest.fixture(scope="module")
def a2_ctx():
    return _a2_recollement()


GOLDEN_FUNCTORS = Path(__file__).parent / "golden" / "functors_seed11.json"
_FUNCTOR_LAYERS = (("i", "quotient"), ("q", "middle"), ("p", "middle"),
                   ("e", "middle"), ("l", "corner"), ("r", "corner"))


def _map_json(fmap, tag):
    return {
        "source": module_to_json(fmap.source, tag),
        "target": module_to_json(fmap.target, tag),
        "matrix": matrix_to_json(fmap.matrix),
    }


def functor_report() -> dict:
    """Every functor image the golden file pins: the six recollement functors
    on structured probes and their projective covers, the triangular functors
    of ``gamma0``, the identity triple maps, τ and Ext over ``a3rel``.

    Regenerate with ``PYTHONPATH=src:tests python -c "import test_recollement
    as t; t.GOLDEN_FUNCTORS.write_text(t.dump_json(t.functor_report()))"``."""
    out = {"recollement": {}, "triangular": {}}
    for alg_id in ("a2", "a3rel"):
        ctx = idempotent_recollement(corpus_load(alg_id), ("e2",))
        per_functor = {}
        for which, layer in _FUNCTOR_LAYERS:
            images, covers = [], []
            for m in structured_probe_modules(getattr(ctx, layer)):
                images.append(module_to_json(apply_functor(ctx, which, m), which))
                _, pi, _ = projective_cover(m)
                covers.append(_map_json(apply_functor(ctx, which, pi), which))
            per_functor[which] = {"modules": images, "covers": covers}
        out["recollement"][f"{alg_id}/e2"] = per_functor
    tctx = corpus_load("gamma0")
    for which, alg in (("Z_A", tctx.a), ("T_B", tctx.b), ("U_A", tctx.gamma),
                       ("U_B", tctx.gamma), ("H_A", tctx.a)):
        images, covers = [], []
        for m in structured_probe_modules(alg):
            images.append(module_to_json(triangular_functors(tctx, which, m), which))
            if which != "H_A":
                _, pi, _ = projective_cover(m)
                covers.append(_map_json(triangular_functors(tctx, which, pi), which))
        out["triangular"][which] = {"modules": images, "covers": covers}
    identities = []
    for m in structured_probe_modules(tctx.gamma):
        triple = triangular_functors(tctx, "module_to_triple", m)
        ident_x = ModuleMap(triple.x, triple.x, Matrix.identity(F2, triple.x.dim))
        ident_y = ModuleMap(triple.y, triple.y, Matrix.identity(F2, triple.y.dim))
        identities.append(
            _map_json(triple_map_to_module_map(tctx, triple, triple, ident_x, ident_y), "gamma")
        )
    out["triangular"]["identity_triple_maps"] = identities
    indecs = enumerate_indecomposables(corpus_load("a3rel"), 3)
    out["a3rel"] = {
        "tau": [module_to_json(ar_translate(m), "a3rel") for m in indecs],
        "ext": [[[ext_dim(m, n, i) for i in (1, 2)] for n in indecs] for m in indecs],
    }
    return out


def test_functor_images_match_golden():
    assert dump_json(functor_report()) == GOLDEN_FUNCTORS.read_text(encoding="utf-8")


def _point_module(tctx, copies):
    k = simple_module(tctx.a, "eu")
    if copies == 0:
        return zero_module(tctx.a)
    total, _, _ = direct_sum([k] * copies, algebra=tctx.a)
    return total


# ---------------------------------------------------------------------------
# Idempotent contexts and the six functors.
# ---------------------------------------------------------------------------


def test_layer_shapes_and_battery(a2_ctx):
    assert a2_ctx.middle.dim == 3
    assert a2_ctx.quotient.dim == 1
    assert a2_ctx.corner.dim == 1
    assert a2_ctx.battery == {"adjunction_pairs": 12, "composites": 5, "notes": []}


def test_functor_dimension_oracles(a2_ctx):
    alg = a2_ctx.middle
    reg = regular_module(alg)
    projs = dict((lbl, p) for p, lbl in indecomposable_projectives(alg))
    assert apply_functor(a2_ctx, "e", projs["e1"]).dim == 1
    assert apply_functor(a2_ctx, "e", reg).dim == 2
    assert apply_functor(a2_ctx, "q", reg).dim == 1
    assert apply_functor(a2_ctx, "p", reg).dim == 0
    assert apply_functor(a2_ctx, "r", regular_module(a2_ctx.corner)).dim == 2


def test_inflation_and_induction_identify_known_modules(a2_ctx):
    alg = a2_ctx.middle
    s_quot = simple_module(a2_ctx.quotient, "e1")
    inflated = apply_functor(a2_ctx, "i", s_quot)
    assert is_isomorphic(inflated, simple_module(alg, "e1")) is not None
    projs = dict((lbl, p) for p, lbl in indecomposable_projectives(alg))
    induced = apply_functor(a2_ctx, "l", regular_module(a2_ctx.corner))
    assert is_isomorphic(induced, projs["e2"]) is not None


def test_composite_identities_on_quotient_modules(a2_ctx):
    s_quot = simple_module(a2_ctx.quotient, "e1")
    inflated = apply_functor(a2_ctx, "i", s_quot)
    assert apply_functor(a2_ctx, "e", inflated).dim == 0
    back = apply_functor(a2_ctx, "q", inflated)
    assert is_isomorphic(back, s_quot) is not None
    fixed = apply_functor(a2_ctx, "p", inflated)
    assert is_isomorphic(fixed, s_quot) is not None


@lru_cache(maxsize=None)
def _corpus_recollement(alg_id):
    return idempotent_recollement(corpus_load(alg_id), ("e2",))


def test_functors_act_on_maps():
    """F(g∘f) = F(g)∘F(f) for each probe's projective cover f followed by
    every Hom basis map g out of the probe, and F(id) = id, for all six
    functors around e2 over a2 and a3rel."""
    for alg_id in ("a2", "a3rel"):
        ctx = _corpus_recollement(alg_id)
        for which, layer in _FUNCTOR_LAYERS:
            probes = structured_probe_modules(getattr(ctx, layer))
            pairs = 0
            for m in probes:
                ident = apply_functor(ctx, which, ModuleMap(m, m, Matrix.identity(F2, m.dim)))
                assert ident.matrix == Matrix.identity(F2, ident.source.dim)
                _, cover, _ = projective_cover(m)
                f_cover = apply_functor(ctx, which, cover)
                for n in probes:
                    for g in hom_space(m, n):
                        lhs = apply_functor(ctx, which, g.compose(cover))
                        rhs = apply_functor(ctx, which, g).matrix.mul(f_cover.matrix)
                        assert lhs.matrix == rhs, (alg_id, which)
                        pairs += 1
            assert pairs > 0, (alg_id, which)


def test_wrong_algebra_input_rejected(a2_ctx):
    corner_reg = regular_module(a2_ctx.corner)
    with pytest.raises(ValidationError):
        apply_functor(a2_ctx, "q", corner_reg)
    with pytest.raises(ValidationError):
        apply_functor(a2_ctx, "bogus", corner_reg)


def test_degenerate_quotient_layer():
    alg = compile_quiver_algebra(quiver_a2())
    ctx = idempotent_recollement(alg, ("e1", "e2"))
    assert ctx.quotient is None
    assert ctx.corner.dim == 3
    assert any("degenerate" in note for note in ctx.data["notes"])
    with pytest.raises(ValidationError):
        verify_transfer(ctx, "lemma_i_transfer", {"t": simple_module(alg, "e1")})


def test_probe_generators_are_reproducible(a2_ctx):
    alg = a2_ctx.middle
    probes = structured_probe_modules(alg)
    assert len(probes) == 4
    first = random_probe_modules(alg, 6, seed=11)
    second = random_probe_modules(alg, 6, seed=11)
    assert [m.encode() for m in first] == [m.encode() for m in second]


def test_random_battery_counts(a2_ctx):
    out = run_adjunction_battery(a2_ctx, count=10, seed=1)
    assert out == {
        "q_left_of_i": 5,
        "l_left_of_e": 5,
        "e_left_of_r": 5,
        "composites": 5,
        "pairs": 5,
    }


def _break_functor(monkeypatch, which):
    """Make ``apply_functor`` send every module to zero under ``which``."""
    real = rmod.apply_functor

    def broken(ctx, name, x):
        image = real(ctx, name, x)
        return zero_module(image.algebra) if name == which else image

    monkeypatch.setattr(rmod, "apply_functor", broken)


def test_construction_battery_names_the_broken_identity(monkeypatch):
    _break_functor(monkeypatch, "p")
    with pytest.raises(ValidationError, match=r"recollement battery failed: .*p\(M\)") as err:
        idempotent_recollement(compile_quiver_algebra(quiver_a2()), ("e2",))
    assert err.value.diagnostics["identity"] == "dim Hom(i(X),M) = dim Hom(X,p(M))"


def test_random_battery_names_the_broken_identity(a2_ctx, monkeypatch):
    _break_functor(monkeypatch, "r")
    with pytest.raises(ValidationError, match=r"dim Hom\(e\(M\),Y\) != dim Hom\(M,r\(Y\)\)"):
        run_adjunction_battery(a2_ctx, count=10, seed=1)


def test_gamma0_idempotent_recollement_battery():
    tctx = _gamma0()
    ctx = idempotent_recollement(tctx.gamma, ("b.ev",))
    assert ctx.quotient.dim == 1
    assert ctx.corner.dim == 2
    assert ctx.battery == {"adjunction_pairs": 20, "composites": 7, "notes": []}
    out = run_adjunction_battery(ctx, count=10, seed=2)
    assert out["pairs"] == 5


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_quotient_inflation_adjunction_dimensions(seed):
    ctx = _a2_recollement()
    [m] = random_probe_modules(ctx.middle, 1, seed=seed)
    [xq] = random_probe_modules(ctx.quotient, 1, seed=seed + 7)
    lhs = hom_dim(apply_functor(ctx, "q", m), xq)
    rhs = hom_dim(m, apply_functor(ctx, "i", xq))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Triangular functor dictionary.
# ---------------------------------------------------------------------------


def test_triangular_hypothesis_flags():
    tctx = _gamma0()
    assert triangular_hypotheses(tctx) == {
        "top_global_dimension_finite": True,
        "bimodule_projective_left": True,
        "bimodule_projective_right": True,
        "ambient_iwanaga_gorenstein": True,
    }


def test_regular_module_splits_into_layer_projectives():
    tctx = _gamma0()
    from silting_forge.modules import decompose

    parts = decompose(regular_module(tctx.gamma))
    dims = sorted(p.dim for p, _, _ in parts)
    assert dims == [1, 4]
    small = next(p for p, _, _ in parts if p.dim == 1)
    big = next(p for p, _, _ in parts if p.dim == 4)
    z_top = triangular_functors(tctx, "Z_A", simple_module(tctx.a, "eu"))
    t_bottom = triangular_functors(tctx, "T_B", regular_module(tctx.b))
    assert is_isomorphic(small, z_top) is not None
    assert is_isomorphic(big, t_bottom) is not None


def test_hom_layer_functor_dimension():
    tctx = _gamma0()
    h = triangular_functors(tctx, "H_A", simple_module(tctx.a, "eu"))
    assert h.dim == 3
    assert h.dimension_vector() == {"a.eu": 1, "b.ev": 2}


def test_triple_round_trip_on_induced_module():
    tctx = _gamma0()
    w = triangular_functors(tctx, "T_B", simple_module(tctx.b, "ev"))
    triple = triangular_functors(tctx, "module_to_triple", w)
    assert (triple.x.dim, triple.y.dim) == (1, 1)
    back = triangular_functors(tctx, "triple_to_module", triple)
    assert is_isomorphic(back, w) is not None


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_triple_assembly_round_trip_random(seed, data):
    tctx = _gamma0()
    [y] = random_probe_modules(tctx.b, 1, seed=seed)
    copies = data.draw(st.integers(min_value=0, max_value=2))
    x = _point_module(tctx, copies)
    t_mod, _, _ = triangular_tensor(tctx, y)
    entries = [
        [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(t_mod.dim)]
        for _ in range(x.dim)
    ]
    link = ModuleMap(t_mod, x, Matrix(F2, entries, x.dim, t_mod.dim))
    assembled = triangular_functors(tctx, "triple_to_module", Triple(x, y, link))
    assert assembled.dim == x.dim + y.dim
    triple = triangular_functors(tctx, "module_to_triple", assembled)
    again = triangular_functors(tctx, "triple_to_module", triple)
    assert is_isomorphic(assembled, again) is not None


def test_triple_map_requires_commuting_square():
    tctx = _gamma0()
    k_b = simple_module(tctx.b, "ev")
    w = triangular_functors(tctx, "T_B", k_b)
    triple = triangular_functors(tctx, "module_to_triple", w)
    ident_x = ModuleMap(triple.x, triple.x, Matrix.identity(F2, triple.x.dim))
    ident_y = ModuleMap(triple.y, triple.y, Matrix.identity(F2, triple.y.dim))
    ok = triple_map_to_module_map(tctx, triple, triple, ident_x, ident_y)
    assert ok.matrix == Matrix.identity(F2, w.dim)
    zero_y = ModuleMap(triple.y, triple.y, Matrix.zeros(F2, triple.y.dim, triple.y.dim))
    with pytest.raises(ValidationError):
        triple_map_to_module_map(tctx, triple, triple, ident_x, zero_y)


def test_analytic_relative_projectives_match_classification():
    tctx = _gamma0()
    analytic = sorted(m.dim for m in analytic_gp_modules(tctx, 4))
    assert analytic == [1, 2, 4]
    gp = gp_classification(tctx, dim_bound=4)
    assert sorted(m.dim for m in gp.modules) == [1, 2, 4]


def test_glued_presentations_are_relatively_exact():
    tctx = _gamma0()
    gpb = gp_classification(tctx.b, dim_bound=4)
    for seed in range(3):
        [y] = random_probe_modules(tctx.b, 1, seed=seed)
        x = _point_module(tctx, (seed % 3))
        theta_x = minimal_projective_presentation(x)
        theta_y = proper_gp_presentation(y, gpb)
        glued = glued_gp_presentation(tctx, theta_x, theta_y)
        assert glued.certificates["relatively_exact"] is True
        expected, _, _ = direct_sum(
            [
                triangular_functors(tctx, "Z_A", x),
                triangular_functors(tctx, "T_B", y),
            ],
            algebra=tctx.gamma,
        )
        assert is_isomorphic(glued.cokernel, expected) is not None


def _a2_over_point():
    """A2 on top of the ground field, glued along the regular A2-module: the
    top algebra has a non-projective simple, and every gluing hypothesis
    holds."""
    top = compile_quiver_algebra(quiver_a2())
    bottom = compile_quiver_algebra(quiver_point())
    left = {lbl: top.left_mult_matrix(top.basis_vector(i)) for i, lbl in enumerate(top.labels)}
    right = {bottom.labels[0]: Matrix.identity(F2, top.dim)}
    return build_triangular(top, bottom, Bimodule(top, bottom, top.dim, left, right))


def test_glued_presentation_checks_the_top_terms_not_the_top_kind():
    tctx = _a2_over_point()
    assert all(triangular_hypotheses(tctx).values())
    s1 = simple_module(tctx.a, "e1")
    theta_y = proper_gp_presentation(simple_module(tctx.b, "e1"), gp_classification(tctx.b, dim_bound=4))
    # A relative presentation over a top algebra of finite global dimension
    # has projective terms, whatever its kind label says.
    theta_x = proper_gp_presentation(s1, gp_classification(tctx.a, dim_bound=4))
    assert theta_x.kind == "gorenstein_projective"
    assert glued_gp_presentation(tctx, theta_x, theta_y).certificates["relatively_exact"] is True
    # S1 -> 0 has a non-projective term under either label.
    for kind in ("projective", "gorenstein_projective"):
        with pytest.raises(ValidationError, match="projective terms"):
            glued_gp_presentation(tctx, zero_target_presentation(s1, kind), theta_y)


# ---------------------------------------------------------------------------
# Statement drivers.
# ---------------------------------------------------------------------------


def test_idempotent_theorem_on_simple(a2_ctx):
    t = simple_module(a2_ctx.quotient, "e1")
    report = verify_transfer(a2_ctx, "thm_idempotent_ideal", {"t": t})
    assert report.verdict == "PASS"
    assert report.atoms["silting_over_quotient"]["verdict"] == "silting"
    assert report.atoms["silting_over_middle"]["verdict"] == "silting"
    assert bool(report)


def _three_attempt_silting(t):
    """The earlier existential verdict, kept as a reference: the automatic
    presentation, then the one padded by the projectives of the unsupported
    vertices; the first silting verdict wins, then the first undecided one."""
    attempts = ["AUTO"]
    supported = {lbl for lbl, d in t.dimension_vector().items() if d > 0}
    comp = [p for p, lbl in indecomposable_projectives(t.algebra) if lbl not in supported]
    if comp:
        attempts.append(presentation_with_complement(t, comp))
    certs = [silting_check(t, sigma) for sigma in attempts]
    for verdict in ("silting", "undecided"):
        for cert in certs:
            if cert.verdict == verdict:
                return cert
    return certs[-1]


@pytest.mark.parametrize("name, bound", [("a2", 3), ("a3rel", 3), ("dualnum", 3), ("kxk", 3), ("a2xa2", 2)])
def test_padded_presentation_alone_decides_existential_silting(name, bound):
    # The support-τ-tilting verdict against the three-attempt reference: the
    # same silting / not-silting split.  A τ-rigid module that the reference
    # calls not_silting has too few summand classes, and reads
    # partial_silting_only; every other label is the reference's.
    alg = corpus_load(name)
    pool = enumerate_indecomposables(alg, bound)
    modules = pool + [direct_sum([x, y], algebra=alg)[0] for x, y in itertools.combinations(pool, 2)]
    for t in modules:
        reference = _three_attempt_silting(t).verdict
        verdict = silting_module_verdict(t)["verdict"]
        assert (verdict == "silting") == (reference == "silting")
        if reference == "not_silting" and hom_dim(t, ar_translate(t)) == 0:
            assert verdict == "partial_silting_only"
        else:
            assert verdict == reference


def test_existential_silting_makes_one_check_per_module(monkeypatch, a2_ctx):
    # Each module of an idempotent statement gets one support-τ-tilting
    # verdict, and no silting_check runs.
    assert not hasattr(rmod, "silting_check")
    checks, verdicts = [], []
    real_check, real_verdict = silting.silting_check, rmod.silting_module_verdict
    monkeypatch.setattr(silting, "silting_check", lambda *args, **kwargs: checks.append(args[0]) or real_check(*args, **kwargs))
    monkeypatch.setattr(rmod, "silting_module_verdict", lambda t: verdicts.append(t) or real_verdict(t))
    t = simple_module(a2_ctx.quotient, "e1")
    assert verify_transfer(a2_ctx, "thm_idempotent_ideal", {"t": t}).verdict == "PASS"
    assert (len(checks), len(verdicts)) == (0, 2)
    del verdicts[:]
    assert suites.run_idempotent_suite()["verdict"] == "PASS"
    assert (len(checks), len(verdicts)) == (0, 12)


def test_existential_gorenstein_silting_makes_one_check_per_module(monkeypatch):
    # One thm_gluing_equivalences row checks x and y once each, at their
    # maximal paddings, and the glued module t once at the glued presentation
    # and, only when that fails, once more at its maximal padding.
    tctx = _gamma0()
    real_check = gorenstein.gorenstein_silting_check
    checked = []

    def spy(t, *args, **kwargs):
        checked.append(t.algebra)
        return real_check(t, *args, **kwargs)

    monkeypatch.setattr(gorenstein, "gorenstein_silting_check", spy)
    monkeypatch.setattr(rmod, "gorenstein_silting_check", spy)
    for y, glued in [(zero_module(tctx.b), True), (simple_module(tctx.b, "ev"), False)]:
        del checked[:]
        report = verify_transfer(tctx, "thm_gluing_equivalences", {"x": zero_module(tctx.a), "y": y})
        assert (report.atoms["a"]["realised_by"] == "glued") is glued
        counts = [sum(alg is side for alg in checked) for side in (tctx.a, tctx.b, tctx.gamma)]
        assert counts == [1, 1, 1 if glued else 2] and len(checked) == sum(counts)


def test_idempotent_statements_read_no_probe(a2_ctx):
    t = simple_module(a2_ctx.quotient, "e1")
    for statement in ("lemma_i_transfer", "thm_idempotent_ideal"):
        with pytest.raises(ValidationError, match="reads no probe"):
            verify_transfer(a2_ctx, statement, {"t": t}, probe=2)
    with pytest.raises(ValidationError, match="reads no probe"):
        verify_transfer(a2_ctx, "lemma_q_transfer", {"t": regular_module(a2_ctx.middle)}, probe=2)


def test_a_tau_rigid_module_with_too_few_summands_reads_partial_silting_only(a2_ctx):
    # P1 over a2 is τ-rigid with one summand class on two supported vertices;
    # its quotient-functor image is the silting simple, so the lemma holds.
    p1 = {lbl: p for p, lbl in indecomposable_projectives(a2_ctx.middle)}["e1"]
    report = verify_transfer(a2_ctx, "lemma_q_transfer", {"t": p1})
    assert report.atoms["silting_over_middle"]["verdict"] == "partial_silting_only"
    assert report.verdict == "PASS"


def test_quotient_transfer_on_regular(a2_ctx):
    reg = regular_module(a2_ctx.middle)
    report = verify_transfer(a2_ctx, "lemma_q_transfer", {"t": reg})
    assert report.verdict == "PASS"


def test_idempotent_suite_rows_an_undecided_report(monkeypatch):
    # A driver stopped by UndecidedError reports no atoms; its row is
    # UNDECIDED with the reason, and so is the suite.
    def undecided(ctx, statement, inputs, probe=None):
        return VerificationReport(
            statement=statement, inputs={}, atoms={}, verdict="UNDECIDED",
            witnesses=[{"reason": "decomposition undecided"}],
        )

    monkeypatch.setattr(suites, "verify_transfer", undecided)
    report = suites.run_idempotent_suite()
    assert report["verdict"] == "UNDECIDED"
    assert report["rows"]
    for row in report["rows"]:
        assert row["verdict"] == "UNDECIDED"
        assert row["reason"] == "decomposition undecided"
        assert "quotient_verdict" not in row


def test_inflation_transfer_on_zero(a2_ctx):
    report = verify_transfer(a2_ctx, "lemma_i_transfer", {"t": zero_module(a2_ctx.quotient)})
    assert report.verdict == "PASS"


def test_dtheta_decomposition_driver():
    tctx = _gamma0()
    y, _, _ = direct_sum(
        [regular_module(tctx.b), simple_module(tctx.b, "ev")], algebra=tctx.b
    )
    report = verify_transfer(
        tctx, "lemma_dtheta_decomposition", {"x": _point_module(tctx, 1), "y": y}
    )
    assert report.verdict == "PASS"


def test_gluing_equivalences_positive_pair():
    tctx = _gamma0()
    y, _, _ = direct_sum(
        [regular_module(tctx.b), simple_module(tctx.b, "ev")], algebra=tctx.b
    )
    report = verify_transfer(
        tctx, "thm_gluing_equivalences", {"x": _point_module(tctx, 1), "y": y}
    )
    assert report.verdict == "PASS"
    for atom in "abcdef":
        assert report.atoms[atom]["value"] is True
    assert report.atoms["equivalence_a_b"] is True
    assert report.atoms["equivalence_a_cdef"] is True


def test_gluing_equivalences_negative_pair_stays_consistent():
    tctx = _gamma0()
    y, _, _ = direct_sum(
        [regular_module(tctx.b), simple_module(tctx.b, "ev")], algebra=tctx.b
    )
    report = verify_transfer(
        tctx, "thm_gluing_equivalences", {"x": zero_module(tctx.a), "y": y}
    )
    assert report.verdict == "PASS"
    assert report.atoms["a"]["value"] is False
    assert report.atoms["b"]["value"] is False
    assert report.atoms["c"]["value"] is False


def _gluing_suite_pairs(tctx):
    """The 15 named (x, y) pairs of ``suites.run_gluing_suite``."""
    k, d = simple_module(tctx.b, "ev"), regular_module(tctx.b)

    def bottom(parts):
        return direct_sum(parts, algebra=tctx.b)[0] if parts else zero_module(tctx.b)

    xs = [("0", _point_module(tctx, 0)), ("k", _point_module(tctx, 1)), ("k2", _point_module(tctx, 2))]
    ys = [("0", bottom([])), ("k", bottom([k])), ("D", bottom([d])), ("D+k", bottom([d, k])), ("k2", bottom([k, k]))]
    return list(itertools.product(xs, ys))


def test_gluing_atoms_do_not_depend_on_the_probe_bound():
    # At bound 0 every probe list is empty, so the restriction test of an
    # approximation is vacuous; the zero map would then pass for every GP
    # module and make the four pairs with x = 0 and y != 0 read FAIL.  Each
    # left approximation of atoms b, e and f is the universal map into
    # add(t), which restricts onto every summand of t whatever the probes.
    tctx = corpus_load("gamma0")
    for (xn, x), (yn, y) in _gluing_suite_pairs(tctx):
        seen = set()
        for probe in (0, 1, 2, 3, None):
            report = verify_transfer(tctx, "thm_gluing_equivalences", {"x": x, "y": y}, probe)
            seen.add((report.verdict, tuple(report.atoms[atom]["value"] for atom in "abcdef")))
        assert len(seen) == 1, (xn, yn, seen)
        assert next(iter(seen))[0] == "PASS", (xn, yn)


def test_partial_gluing_proposition():
    tctx = _gamma0()
    report = verify_transfer(
        tctx,
        "prop_partial_gluing",
        {"x": _point_module(tctx, 1), "y": simple_module(tctx.b, "ev")},
    )
    assert report.verdict == "PASS"


def test_partial_corollary_pass_and_recorded_failure():
    tctx = _gamma0()
    k_b = simple_module(tctx.b, "ev")
    good = verify_transfer(
        tctx, "cor_triangular_partial", {"x": _point_module(tctx, 1), "y": k_b}
    )
    assert good.verdict == "PASS"
    sensitive = verify_transfer(
        tctx, "cor_triangular_partial", {"x": zero_module(tctx.a), "y": k_b}
    )
    assert sensitive.verdict == "FAIL"
    assert sensitive.atoms["glued_partial_wrt_glued_presentation"] is True
    assert sensitive.atoms["tensor_image_relatively_generated"] is False
    assert sensitive.witnesses


def test_unknown_statement_and_bad_probe():
    tctx = _gamma0()
    with pytest.raises(ValidationError):
        verify_transfer(tctx, "no_such_statement", {})
    with pytest.raises(ValidationError):
        verify_transfer(
            tctx,
            "thm_gluing_equivalences",
            {"x": zero_module(tctx.a), "y": zero_module(tctx.b)},
            probe="three",
        )


def test_transfer_inputs_are_validated_by_key(a2_ctx):
    t = simple_module(a2_ctx.quotient, "e1")
    for inputs, named in [
        ({}, "'t'"),
        ({"t": t, "sigma": minimal_projective_presentation(t)}, "'sigma'"),
        ({"t": "AUTO"}, "'t'"),
    ]:
        with pytest.raises(ValidationError, match=named):
            verify_transfer(a2_ctx, "thm_idempotent_ideal", inputs)
    tctx = _gamma0()
    x, y = _point_module(tctx, 1), simple_module(tctx.b, "ev")
    for inputs, named in [
        ({"x": x}, "'y'"),
        ({"x": x, "y": y, "t": x}, "'t'"),
        ({"x": x, "y": y, "theta_x": minimal_projective_presentation(x)}, "'theta_x'"),
    ]:
        with pytest.raises(ValidationError, match=named):
            verify_transfer(tctx, "cor_triangular_partial", inputs)


def test_report_serialisation_is_deterministic():
    tctx = _gamma0()
    inputs = {"x": _point_module(tctx, 1), "y": simple_module(tctx.b, "ev")}
    first = verify_transfer(tctx, "cor_triangular_partial", inputs).to_json()
    second = verify_transfer(tctx, "cor_triangular_partial", inputs).to_json()
    assert first == second


# ---------------------------------------------------------------------------
# Memoized functor images
# ---------------------------------------------------------------------------


def _content(image):
    """A functor image as comparable content: a module's encoding, a map's
    ends and matrix, a triple's parts, or an induced module with its
    projection and section."""
    if isinstance(image, Module):
        return image.encode()
    if isinstance(image, ModuleMap):
        return image.source.encode(), image.target.encode(), image.matrix
    if isinstance(image, Triple):
        return _content(image.x), _content(image.y), _content(image.f)
    mod, data = image
    return mod.encode(), data["projection"], data["section"]


def _small_modules(alg):
    return [zero_module(alg)] + enumerate_indecomposables(alg, 2) + [regular_module(alg)]


def _functor_inputs(alg):
    """Maps between small modules, then the modules: asking for the maps
    first memoizes their ends before the modules themselves are asked for."""
    mods = _small_modules(alg)
    maps = [h for m, n in itertools.product(mods[1:4], repeat=2) for h in hom_space(m, n)]
    return maps + mods


def _memo_entries(owner, fn):
    return sum(1 for key in owner._memo if key[0] is fn.__wrapped__)


@pytest.mark.parametrize("name", ["a2", "a3rel"])
def test_warm_functor_images_match_a_cold_context(name):
    warm = idempotent_recollement(corpus_load(name), ("e2",))

    def cold():
        bimodule = dataclasses.replace(warm.data["l_bimodule"])
        return dataclasses.replace(warm, data=dict(warm.data, l_bimodule=bimodule))

    assert cold()._memo == {} and cold().data["l_bimodule"]._memo == {}
    for which, layer in _FUNCTOR_LAYERS:
        for x in _functor_inputs(getattr(warm, layer)):
            first = apply_functor(warm, which, x)
            again = apply_functor(warm, which, x)
            if isinstance(x, Module):
                assert again is first
            assert _content(first) == _content(again) == _content(apply_functor(cold(), which, x))


def test_warm_triangular_images_match_a_cold_context():
    warm = corpus_load("gamma0")

    def cold():
        return dataclasses.replace(warm, _memo={}, n=dataclasses.replace(warm.n))

    cases = (
        [("Z_A", x) for x in _functor_inputs(warm.a)]
        + [("T_B", y) for y in _functor_inputs(warm.b)]
        + [("module_to_triple", z) for z in _small_modules(warm.gamma)]
    )
    for which, x in cases:
        first = triangular_functors(warm, which, x)
        assert triangular_functors(warm, which, x) is first
        assert _content(first) == _content(triangular_functors(cold(), which, x))
    for y in _functor_inputs(warm.b):
        if isinstance(y, ModuleMap):
            assert _content(tensor_map(warm.n, y)) == _content(tensor_map(cold().n, y))
        else:
            first = tensor_over_algebra(warm.n, y)
            assert tensor_over_algebra(warm.n, y) is first
            assert _content(first) == _content(tensor_over_algebra(cold().n, y))


def test_a_gluing_pass_builds_each_triple_and_induced_module_once(monkeypatch):
    # One gluing suite pass asks 45 times for the triples of the 3 glued GP
    # modules (atom b, 15 rows) and builds each once; it builds 10 induced
    # modules N ⊗ Y over gamma0's bimodule.
    contexts, requests = [], []
    memoized = rmod._module_to_triple

    def load(name, _load=suites.corpus_load):
        contexts.append(_load(name))
        return contexts[-1]

    def to_triple(tctx, m):
        requests.append(m)
        return memoized(tctx, m)

    monkeypatch.setattr(suites, "corpus_load", load)
    monkeypatch.setattr(rmod, "_module_to_triple", to_triple)
    suites.run_suite("gluing")
    (tctx,) = contexts
    assert len(requests) == 45 and len(set(map(id, requests))) == 3
    assert _memo_entries(tctx, memoized) == 3
    assert _memo_entries(tctx.n, tensor_over_algebra) == 10


def test_an_idempotent_pass_computes_each_functor_image_once(monkeypatch):
    # The construction batteries and the inflations of one idempotent suite
    # pass ask for 166 functor images of 46 distinct (functor, module) inputs.
    contexts, requests = [], []
    memoized = rmod._functor_module

    def build(alg, e_labels, _build=suites.idempotent_recollement):
        contexts.append(_build(alg, e_labels))
        return contexts[-1]

    def image(ctx, which, m):
        requests.append((which, m))
        return memoized(ctx, which, m)

    monkeypatch.setattr(suites, "idempotent_recollement", build)
    monkeypatch.setattr(rmod, "_functor_module", image)
    suites.run_suite("idempotent")
    assert len(contexts) == 2
    assert len(requests) == 166
    assert sum(_memo_entries(ctx, memoized) for ctx in contexts) == 46


def test_memoized_functor_images_free_their_contexts_without_the_cyclic_collector(monkeypatch):
    # The images live in the memos of the contexts and bimodules that define
    # them, so no memo value may refer back to its owner.
    refs = []

    def build(alg, e_labels, _build=suites.idempotent_recollement):
        ctx = _build(alg, e_labels)
        refs.extend([weakref.ref(ctx), weakref.ref(ctx.data["l_bimodule"])])
        return ctx

    monkeypatch.setattr(suites, "idempotent_recollement", build)
    gc.disable()
    try:
        suites.run_suite("idempotent")
        tctx = corpus_load("gamma0")
        for y in _functor_inputs(tctx.b):
            triangular_functors(tctx, "T_B", y)
        for z in _small_modules(tctx.gamma):
            triangular_functors(tctx, "module_to_triple", z)
        triangular_functors(tctx, "Z_A", regular_module(tctx.a))
        refs.extend([weakref.ref(tctx), weakref.ref(tctx.n)])
        del tctx
        assert len(refs) == 6 and [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()


def test_a_glued_candidate_that_fails_falls_back_to_the_maximal_padding(monkeypatch):
    # No bundled input reaches atom a's fallback: over gamma0 the glued
    # candidate certifies every glued module that the maximal padding does.
    # Forcing the candidate to read "not" shows the fallback answering.
    tctx = _gamma0()
    check = rmod.gorenstein_silting_check

    def failing_candidate(t, theta="AUTO", *args, **kwargs):
        cert = check(t, theta, *args, **kwargs)
        return dataclasses.replace(cert, verdict="not") if isinstance(theta, Presentation) else cert

    monkeypatch.setattr(rmod, "gorenstein_silting_check", failing_candidate)
    k = _point_module(tctx, 1)
    fallback = verify_transfer(tctx, "thm_gluing_equivalences", {"x": k, "y": zero_module(tctx.b)})
    assert fallback.atoms["a"] == {"value": True, "realised_by": "maximal_padding", "glued_verdict": "not"}
    assert fallback.verdict == "PASS"
    refused = verify_transfer(tctx, "thm_gluing_equivalences", {"x": k, "y": regular_module(tctx.b)})
    assert refused.atoms["a"] == {"value": False, "realised_by": None, "glued_verdict": "not"}
