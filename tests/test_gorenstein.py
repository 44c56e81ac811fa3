"""Self-injective dimension reports, GP classification, relative machinery."""

import dataclasses
import gc
import itertools
import weakref

import pytest

from conftest import F2, QQ, quiver_a2, quiver_a3_rel, quiver_dual_numbers

from silting_forge.algebra import (
    Arrow,
    DomainError,
    QuiverPresentation,
    ValidationError,
    compile_quiver_algebra,
)
from silting_forge import gorenstein, modules, suites
from silting_forge import recollement as rmod
from silting_forge.exactlinalg import Matrix
from silting_forge.io import corpus_load
from silting_forge.modules import (
    ModuleMap,
    Presentation,
    cokernel,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    ext_dim,
    hom_dim,
    hom_space,
    indecomposable_iso,
    indecomposable_projectives,
    is_isomorphic,
    is_projective,
    minimal_projective_presentation,
    precompose_corank,
    quotient_module,
    regular_module,
    simple_module,
    submodule,
    summands,
    tensor_over_field,
    zero_module,
)
from silting_forge.gorenstein import (
    GpClassification,
    d_theta_contains,
    gen_g_contains,
    gext_dim,
    gorenstein_report,
    gorenstein_silting_check,
    gp_classification,
    is_g_exact,
    is_gorenstein_projective,
    left_approximation_sequence,
    proper_gp_presentation,
    right_gp_approximation,
)
from silting_forge.recollement import _embedding, _module_to_triple, glued_gp_presentation
from silting_forge.silting import direct_sum_presentation, enumerate_silting, summand_classes, zero_target_presentation
from silting_forge.suites import run_suite


def two_loop_local_algebra():
    """k[x,y] with all products of the loops killed: socle is 2-dimensional,
    so the regular module has unbounded injective resolution."""
    q = QuiverPresentation(
        ["v"],
        [Arrow("x", "v", "v"), Arrow("y", "v", "v")],
        [[("1", ["x", "x"])], [("1", ["x", "y"])], [("1", ["y", "x"])], [("1", ["y", "y"])]],
        F2,
        4,
    )
    return compile_quiver_algebra(q)


@pytest.fixture(scope="module")
def gp_a2():
    alg = compile_quiver_algebra(quiver_a2())
    return alg, gp_classification(alg, 4)


@pytest.fixture(scope="module")
def gp_dual():
    alg = compile_quiver_algebra(quiver_dual_numbers())
    return alg, gp_classification(alg, 4)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def test_report_hereditary(a2):
    rep = gorenstein_report(a2)
    assert rep.verdict == "gorenstein"
    assert rep.left_injective_dimension == 1
    assert rep.right_injective_dimension == 1
    assert rep.global_dimension == 1
    assert bool(rep)


def test_report_self_injective(dual):
    rep = gorenstein_report(dual)
    assert rep.verdict == "gorenstein"
    assert rep.left_injective_dimension == 0
    assert rep.right_injective_dimension == 0
    assert rep.global_dimension is None
    assert rep.to_json()["global_dimension"] == "exceeds_bound"


def test_report_not_within_bound():
    alg = two_loop_local_algebra()
    rep = gorenstein_report(alg, bound=3)
    assert rep.verdict == "not_within_bound"
    assert not bool(rep)
    with pytest.raises(DomainError, match="GP test requires Gorenstein certificate"):
        is_gorenstein_projective(regular_module(alg), rep)


# ---------------------------------------------------------------------------
# GP detection and classification.
# ---------------------------------------------------------------------------


def test_projectives_are_gp(a2, dual):
    for alg in (a2, dual):
        cert = is_gorenstein_projective(regular_module(alg))
        assert bool(cert)


def test_simple_over_hereditary_is_not_gp(a2):
    cert = is_gorenstein_projective(simple_module(a2, "e1"))
    assert not bool(cert)
    assert cert.ext_dims[1] == 1


def test_simple_over_self_injective_is_gp(dual):
    cert = is_gorenstein_projective(simple_module(dual, "ev"))
    assert bool(cert)
    assert any("self-injective" in n for n in cert.notes)


def test_classification_hereditary_is_projectives(gp_a2):
    alg, gp = gp_a2
    projs = [p for p, _ in indecomposable_projectives(alg)]
    assert len(gp.modules) == len(projs)
    for m in gp.modules:
        assert is_projective(m)
        assert any(is_isomorphic(m, p) is not None for p in projs)
    assert gp.complete


def test_classification_self_injective_is_everything(gp_dual):
    alg, gp = gp_dual
    pool = enumerate_indecomposables(alg, 4)
    assert len(gp.modules) == len(pool) == 2


def test_classification_requires_certificate():
    alg = two_loop_local_algebra()
    with pytest.raises(DomainError):
        gp_classification(alg, 3, report=gorenstein_report(alg, bound=3))


def test_gp_closed_under_sums_and_summands(gp_a2, gp_dual):
    for alg, gp in (gp_a2, gp_dual):
        for a in gp.modules:
            for b in gp.modules:
                assert bool(is_gorenstein_projective(direct_sum([a, b], algebra=alg)[0]))
    alg, gp = gp_a2
    s1 = simple_module(alg, "e1")
    bad = direct_sum([s1, gp.modules[0]], algebra=alg)[0]
    assert not bool(is_gorenstein_projective(bad))


# ---------------------------------------------------------------------------
# Right approximations and proper presentations.
# ---------------------------------------------------------------------------


def test_right_approximation_of_gp_module_is_identity_like(gp_dual):
    alg, gp = gp_dual
    for m in gp.modules:
        ap = right_gp_approximation(m, gp)
        assert ap.source.dim == m.dim
        assert is_isomorphic(ap.source, m) is not None


def test_right_approximation_of_simple_is_cover(gp_a2):
    alg, gp = gp_a2
    s1 = simple_module(alg, "e1")
    ap = right_gp_approximation(s1, gp)
    assert ap.is_surjective()
    assert ap.source.dim == 2  # the length-two projective


def test_right_approximation_demands_completeness(gp_a2):
    alg, gp = gp_a2
    partial = GpClassification(
        algebra=alg,
        dim_bound=gp.dim_bound,
        modules=gp.modules,
        complete=False,
        report=gp.report,
        notes=(),
    )
    with pytest.raises(ValidationError):
        right_gp_approximation(simple_module(alg, "e1"), partial)


def test_proper_presentation_of_projective_is_trivial(gp_a2, gp_dual):
    for alg, gp in (gp_a2, gp_dual):
        reg = regular_module(alg)
        pres = proper_gp_presentation(reg, gp)
        assert pres.kind == "gorenstein_projective"
        assert pres.map.source.dim == 0
        assert pres.map.target.dim == reg.dim


def test_proper_presentation_of_simple_matches_minimal(gp_a2):
    alg, gp = gp_a2
    pres = proper_gp_presentation(simple_module(alg, "e1"), gp)
    assert pres.map.source.dim == 1
    assert pres.map.target.dim == 2


def test_proper_presentation_of_gp_simple_is_trivial(gp_dual):
    alg, gp = gp_dual
    pres = proper_gp_presentation(simple_module(alg, "ev"), gp)
    assert pres.map.source.dim == 0
    assert pres.map.target.dim == 1


def test_proper_presentations_are_relatively_exact(gp_a2, gp_dual):
    for alg, gp in (gp_a2, gp_dual):
        for m in enumerate_indecomposables(alg, 3):
            pres = proper_gp_presentation(m, gp)
            assert bool(is_g_exact((pres.map, pres.coker_map), gp))


# ---------------------------------------------------------------------------
# Relative exactness.
# ---------------------------------------------------------------------------


def test_split_sequences_are_g_exact(gp_dual):
    alg, gp = gp_dual
    k = simple_module(alg, "ev")
    reg = regular_module(alg)
    total, injections, projections = direct_sum([k, reg], algebra=alg)
    assert bool(is_g_exact((injections[0], projections[1]), gp))


def test_socle_sequence_is_not_g_exact(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    xcols = reg.radical_columns()
    _, inc = submodule(reg, xcols)
    _, proj = quotient_module(reg, xcols)
    res = is_g_exact((inc, proj), gp)
    assert not bool(res)
    assert res.witness["gp_dimension_vector"] == {"ev": 1}
    assert res.witness["stage"] == "end_surjectivity"


def test_ordinary_exactness_failure_raises_distinct_error(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    ident = ModuleMap(reg, reg, Matrix.identity(alg.field, reg.dim))
    with pytest.raises(ValidationError, match="ordinary"):
        is_g_exact((ident, ident), gp)


def test_g_exact_over_hereditary_equals_exact(gp_a2):
    alg, gp = gp_a2
    s1 = simple_module(alg, "e1")
    pres = proper_gp_presentation(s1, gp)
    assert bool(is_g_exact((pres.map, pres.coker_map), gp))


# ---------------------------------------------------------------------------
# Relative derived functors.
# ---------------------------------------------------------------------------


def test_gext_of_gp_module_vanishes(gp_dual):
    alg, gp = gp_dual
    k = simple_module(alg, "ev")
    assert gext_dim(k, k, 1, gp) == 0
    assert gext_dim(regular_module(alg), k, 1, gp) == 0


def test_gext_equals_ext_over_hereditary(gp_a2):
    """Over finite global dimension the GP modules are the projectives, so the
    proper relative resolution is the minimal projective one: relative Ext is
    Ext, and both presentations have the same terms.  a3rel (global dimension
    2, a zero relation) reaches Ext^2 != 0, which a2 cannot."""
    a3rel = compile_quiver_algebra(quiver_a3_rel())
    nonzero_high = 0
    for alg, gp in (gp_a2, (a3rel, gp_classification(a3rel, 3))):
        pool = enumerate_indecomposables(alg, 3)
        for m in pool:
            proper = proper_gp_presentation(m, gp)
            minimal = minimal_projective_presentation(m)
            assert (proper.map.source.dim, proper.map.target.dim) == (
                minimal.map.source.dim,
                minimal.map.target.dim,
            )
            for n in pool:
                for i in (1, 2, 3):
                    value = ext_dim(m, n, i)
                    assert gext_dim(m, n, i, gp) == value
                    nonzero_high += i >= 2 and value != 0
    assert nonzero_high > 0


def test_gext_degree_zero_is_hom(gp_a2):
    alg, gp = gp_a2
    s1 = simple_module(alg, "e1")
    assert gext_dim(s1, s1, 0, gp) == hom_dim(s1, s1)


# ---------------------------------------------------------------------------
# Relative generation and membership.
# ---------------------------------------------------------------------------


def test_gen_g_oracles(gp_dual):
    alg, gp = gp_dual
    k = simple_module(alg, "ev")
    reg = regular_module(alg)
    both = direct_sum([reg, k], algebra=alg)[0]
    assert gen_g_contains(k, k, gp)
    assert not gen_g_contains(reg, k, gp)
    assert gen_g_contains(both, k, gp)
    assert gen_g_contains(reg, reg, gp)


def test_gen_g_over_self_injective_is_summand(gp_dual):
    """Relative epis split over a self-injective algebra, so relative
    generation collapses to being a direct summand of a finite sum."""
    from silting_forge.modules import decompose

    alg, gp = gp_dual
    pool = enumerate_indecomposables(alg, 4)
    sums = [direct_sum(parts, algebra=alg)[0] for parts in [[p] for p in pool] + [[a, b] for a in pool for b in pool]]
    for t in sums:
        t_classes = [p for p, _, _ in decompose(t)]
        for m in pool:
            summand = any(is_isomorphic(m, p) is not None for p in t_classes)
            assert gen_g_contains(t, m, gp) == summand


def test_d_theta_oracles(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    k = simple_module(alg, "ev")
    # Zero-source presentation: everything belongs.
    auto = proper_gp_presentation(reg, gp)
    assert d_theta_contains(auto, k) and d_theta_contains(auto, reg)
    # Multiplication by the radical generator: nothing nonzero belongs.
    xmap = ModuleMap(reg, reg, reg.action["x"])
    coker, cmap = cokernel(xmap)
    theta = Presentation(
        kind="gorenstein_projective", map=xmap, cokernel=coker, coker_map=cmap, certificates={}
    )
    assert not d_theta_contains(theta, k)
    assert not d_theta_contains(theta, reg)
    assert d_theta_contains(theta, zero_module(alg))


def test_d_theta_rejects_projective_kind(gp_a2):
    alg, gp = gp_a2
    sigma = minimal_projective_presentation(simple_module(alg, "e1"))
    with pytest.raises(ValidationError):
        d_theta_contains(sigma, simple_module(alg, "e1"))


def test_gen_g_implies_d_theta_on_probes(gp_a2, gp_dual):
    for alg, gp in (gp_a2, gp_dual):
        pool = enumerate_indecomposables(alg, 3)
        for t in pool:
            theta = proper_gp_presentation(t, gp)
            if not d_theta_contains(theta, t):
                continue
            for m in pool:
                if gen_g_contains(t, m, gp):
                    assert d_theta_contains(theta, m)


# ---------------------------------------------------------------------------
# Certified relative checks.
# ---------------------------------------------------------------------------


def test_check_add_generator_over_self_injective(gp_dual):
    alg, gp = gp_dual
    t = direct_sum([regular_module(alg), simple_module(alg, "ev")], algebra=alg)[0]
    cert = gorenstein_silting_check(t, "AUTO", gp)
    assert cert.verdict == "gorenstein_silting"
    assert cert.mismatch is None
    assert all(bool(a) for a in cert.approximations)


def test_check_regular_over_self_injective_fails(gp_dual):
    alg, gp = gp_dual
    cert = gorenstein_silting_check(regular_module(alg), "AUTO", gp)
    assert cert.verdict == "not"
    assert cert.mismatch is not None
    assert cert.mismatch["dimension_vector"] == {"ev": 1}
    assert cert.mismatch["in_d_theta"] and not cert.mismatch["in_gen_g"]


def test_check_regular_over_hereditary(gp_a2):
    alg, gp = gp_a2
    cert = gorenstein_silting_check(regular_module(alg), "AUTO", gp)
    assert cert.verdict == "gorenstein_silting"


def test_check_partial_only_without_separating_probes(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    cert = gorenstein_silting_check(reg, "AUTO", gp, probe=[reg])
    assert cert.verdict == "partial_only"
    assert cert.mismatch is None
    assert not all(bool(a) for a in cert.approximations)


def test_no_probes_do_not_certify_the_simple_over_the_dual_numbers():
    # Without probes the restriction test of an approximation is vacuous,
    # so the zero map would pass for every GP module and certify k.  The
    # universal map fails for the GP module k itself: k is partial only.
    alg = corpus_load("dualnum")
    gp = gp_classification(alg)
    k = simple_module(alg, "ev")
    assert gorenstein_silting_check(k, "AUTO", gp, probe=[]).verdict == "partial_only"
    assert gorenstein_silting_check(k, "AUTO", gp).verdict == "not"


def test_an_int_probe_bounds_the_relative_sweep():
    # As in silting_check, an int probe is a dimension bound: the sweep runs
    # over the indecomposables up to it, and over Q, with no enumeration, it
    # raises.
    alg = corpus_load("dualnum")
    gp = gp_classification(alg)
    k = simple_module(alg, "ev")
    bounded = gorenstein_silting_check(k, "AUTO", gp, probe=2).to_json()
    listed = gorenstein_silting_check(k, "AUTO", gp, probe=enumerate_indecomposables(alg, 2)).to_json()
    assert "probe sweep: all indecomposables of dimension <= 2" in bounded.pop("notes")
    assert "probe sweep: supplied probe list" in listed.pop("notes")
    assert bounded == listed and len(bounded["probes"]) == 2
    a2q = compile_quiver_algebra(quiver_a2(QQ))
    projectives = [p for p, _ in indecomposable_projectives(a2q)]
    gp_q = GpClassification(a2q, 2, projectives, True, gorenstein_report(a2q), ())
    with pytest.raises(DomainError, match="finite field"):
        gorenstein_silting_check(regular_module(a2q), "AUTO", gp_q, probe=2)


def test_check_carries_coproduct_note(gp_dual):
    alg, gp = gp_dual
    t = direct_sum([regular_module(alg), simple_module(alg, "ev")], algebra=alg)[0]
    cert = gorenstein_silting_check(t, "AUTO", gp)
    assert any("coproduct closure" in n for n in cert.notes)
    cert.to_json()


# ---------------------------------------------------------------------------
# Left approximation sequences.
# ---------------------------------------------------------------------------


def test_sequence_for_module_already_in_add(gp_dual):
    alg, gp = gp_dual
    t = direct_sum([regular_module(alg), simple_module(alg, "ev")], algebra=alg)[0]
    theta = proper_gp_presentation(t, gp)
    for g in gp.modules:
        seq = left_approximation_sequence(g, t, theta, gp)
        assert seq.found


def test_sequence_canonical_example(gp_a2):
    alg, gp = gp_a2
    projs = {lbl: p for p, lbl in indecomposable_projectives(alg)}
    t = direct_sum([simple_module(alg, "e1"), projs["e1"]], algebra=alg)[0]
    theta = proper_gp_presentation(t, gp)
    seq = left_approximation_sequence(projs["e2"], t, theta, gp)
    assert seq.found
    assert seq.detail["middle_dim"] == 2
    assert seq.detail["end_dim"] == 1
    assert bool(is_g_exact((seq.phi, seq.psi), gp))


def test_sequence_none_is_a_value(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    k = simple_module(alg, "ev")
    theta = proper_gp_presentation(reg, gp)
    seq = left_approximation_sequence(k, reg, theta, gp)
    assert not seq.found
    assert seq.phi is None and seq.detail == {}
    assert seq.to_json()["found"] is False


def _subset_approximation_search(p, t, theta, gp, class_probes):
    """The search that the universal map replaced, kept as a reference.

    Every subset of the Hom-basis columns p -> T_i, over the summand classes
    T_i of t, is a candidate p -> T_0 (the empty subset is the zero map).  A
    candidate is kept only when it restricts onto Hom(-, T_i) for every T_i,
    that is when it is a left add(t)-approximation, and it passes when its
    cokernel lies in Add(t), T_0 lies in theta's class, the sequence is
    G-exact and it restricts onto every class probe.  True when some
    candidate passes."""
    alg = p.algebra
    parts = [part for part, _, _ in decompose(t)] if t.dim else []
    columns = [(part, h.matrix) for part in parts for h in hom_space(p, part)]
    for size in range(len(columns) + 1):
        for combo in itertools.combinations(columns, size):
            if combo:
                t0 = direct_sum([part for part, _ in combo], algebra=alg)[0]
                phi = ModuleMap(p, t0, Matrix.vstack([h for _, h in combo]))
            else:
                t0 = zero_module(alg)
                phi = ModuleMap(p, t0, Matrix.zeros(alg.field, 0, p.dim))
            if any(precompose_corank(phi, part) for part in parts):
                continue
            coker, cmap = cokernel(phi)
            in_add = coker.dim == 0 or all(
                any(is_isomorphic(piece, part) is not None for part in parts)
                for piece, _, _ in decompose(coker)
            )
            if (
                in_add
                and d_theta_contains(theta, t0)
                and is_g_exact((phi, cmap), gp)
                and all(precompose_corank(phi, u) == 0 for u in class_probes)
            ):
                return True
    return False


@pytest.mark.parametrize("name", ["a2", "a3rel", "dualnum"])
def test_the_universal_map_passes_exactly_when_some_approximation_does(name):
    # The modules t of test_maximal_padding_decides_as_the_subset_search_does
    # over this algebra, against their proper presentation and their maximal
    # padding wherever t lies in the class: any left add(t)-approximation is
    # the universal map's minimal part plus a split summand.
    alg = corpus_load(name)
    gp = gp_classification(alg)
    pool = enumerate_indecomposables(alg, 3)
    modules = [zero_module(alg)] + pool + [
        direct_sum([u, v], algebra=alg)[0] for u, v in itertools.combinations(pool, 2)
    ]
    probes = enumerate_indecomposables(alg, gp.dim_bound)
    outcomes = []
    for t in modules:
        for theta in (proper_gp_presentation(t, gp), gorenstein_silting_check(t, "AUTO", gp).presentation):
            if not d_theta_contains(theta, t):
                continue
            class_probes = [u for u in probes if d_theta_contains(theta, u)]
            for p in gp.modules:
                found = left_approximation_sequence(p, t, theta, gp, class_probes).found
                assert found == _subset_approximation_search(p, t, theta, gp, class_probes), (
                    t.dimension_vector(), p.dimension_vector())
                outcomes.append(found)
    assert True in outcomes and False in outcomes, outcomes


def _add_parts_reference(t):
    """The summand classes of t by decompose of t whole, kept as a reference."""
    return [part for part, _, _ in decompose(t)] if t.dim else []


def _in_add_reference(q, parts):
    """Membership of q in add of the indecomposables ``parts`` by decompose
    of q, kept as a reference: every indecomposable summand of q is
    isomorphic to one of them."""
    if q.dim == 0:
        return True
    if not parts:
        return False
    return all(
        any(indecomposable_iso(piece, part) is not None for part in parts) for piece, _, _ in decompose(q)
    )


def test_membership_in_add_matches_the_decomposing_reference(monkeypatch):
    # Every cokernel that a universal map p -> T_0 builds, for every listed GP
    # module p and every t among the indecomposables and their sums of two,
    # against the summand classes of t (read off its record, and by
    # decompose) and against the classes of every other such t.
    in_add = gorenstein._in_add
    tested = []
    monkeypatch.setattr(gorenstein, "_in_add", lambda q, parts: tested.append((q, parts)) or in_add(q, parts))
    outcomes = set()
    for name in ("a2", "a3rel", "dualnum", "kxk", "a2xa2"):
        alg = corpus_load(name)
        gp = gp_classification(alg)
        pool = enumerate_indecomposables(alg, 2 if name == "a2xa2" else 3)
        ts = pool + [direct_sum([u, v], algebra=alg)[0] for u, v in itertools.combinations_with_replacement(pool, 2)]
        cokernels = []
        for t in ts:
            for p in gp.modules:
                tested.clear()
                gorenstein._UniversalApproximation(p, t)
                ((q, parts),) = tested
                assert parts == summand_classes(t)
                cokernels.append(q)
        for q in dict.fromkeys(cokernels):
            for t in ts:
                expected = _in_add_reference(q, _add_parts_reference(t))
                got = in_add(q, summand_classes(t))
                assert got == in_add(q, _add_parts_reference(t)) == expected, (name, q.dimension_vector(), t.dimension_vector())
                outcomes.add((q.dim > 0, got))
            assert in_add(q, []) == (q.dim == 0)
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_summand_classes_match_the_classes_of_decompose():
    # Recorded sums, repeats, sums of sums and tensor products, whose classes
    # are read off their records, and modules with nothing recorded, whose
    # classes are the parts of decompose: one representative per class of
    # decompose of the whole module.
    alg, tensor_alg = corpus_load("a2"), corpus_load("a2xa2")
    certs = enumerate_silting(alg, 3)
    ts = [tensor_over_field(ci.module, cj.module, tensor_alg) for ci, cj in itertools.product(certs, repeat=2)]
    ts += [tensor_over_field(u, v, tensor_alg) for u, v in itertools.product(enumerate_indecomposables(alg, 2), repeat=2)]
    for name in ("a2", "a3rel", "dualnum", "kxk"):
        corpus = corpus_load(name)
        pool = enumerate_indecomposables(corpus, 3)
        pairs = [direct_sum([u, v])[0] for u, v in itertools.combinations_with_replacement(pool, 2)]
        ts += [zero_module(corpus), regular_module(corpus)] + pool + pairs
        ts += [direct_sum([pairs[0], pool[-1], pairs[-1]])[0], direct_sum([regular_module(corpus), pairs[-1]])[0]]
    recorded = 0
    for t in ts:
        reps, parts = summand_classes(t), _add_parts_reference(t)
        iso = [[indecomposable_iso(r, part) is not None for part in parts] for r in reps]
        assert len(reps) == len(parts), t.dimension_vector()
        assert all(sum(row) == 1 for row in iso) and all(sum(col) == 1 for col in zip(*iso)), t.dimension_vector()
        if len(summands(t)) == 1:
            assert all(r is part for r, part in zip(reps, parts))
        recorded += len(summands(t)) > 1
    assert (recorded, max(len(summand_classes(t)) for t in ts)) == (47, 4)


# ---------------------------------------------------------------------------
# The automatic presentation: one check at the maximal padding.
# ---------------------------------------------------------------------------


def _subset_search(t, gp):
    """The earlier existential answer, kept as a reference: the proper
    presentation of t padded by G -> 0 over the subsets of the listed GP
    modules G with Hom(G, t) = 0, in mask order; the first certified padding
    wins, and None means that none is."""
    base = proper_gp_presentation(t, gp)
    eligible = [g for g in gp.modules if hom_dim(g, t) == 0]
    for mask in range(2 ** len(eligible)):
        blocks = [base] + [
            zero_target_presentation(g, "gorenstein_projective")
            for j, g in enumerate(eligible)
            if mask >> j & 1
        ]
        theta = direct_sum_presentation(blocks, algebra=t.algebra) if len(blocks) > 1 else base
        cert = gorenstein_silting_check(t, theta, gp)
        if cert:
            return theta, cert
    return None


def test_maximal_padding_decides_as_the_subset_search_does():
    # The zero module, the indecomposables and their sums of two distinct
    # members: 85 modules, 42 of them Gorenstein-silting.
    gamma0 = corpus_load("gamma0")
    cases = [(gamma0, gamma0.gamma, 2), (corpus_load("a2xa2"), None, 2)] + [
        (source, None, 3)
        for source in (gamma0.a, gamma0.b, corpus_load("a2"), corpus_load("a3rel"),
                       corpus_load("dualnum"), corpus_load("kxk"))
    ]
    seen = certified = 0
    for source, alg, bound in cases:
        alg = alg or source
        gp = gp_classification(source)
        pool = enumerate_indecomposables(alg, bound)
        modules = [zero_module(alg)] + pool + [
            direct_sum([u, v], algebra=alg)[0] for u, v in itertools.combinations(pool, 2)
        ]
        for t in modules:
            verdict = gorenstein_silting_check(t, "AUTO", gp)
            assert bool(verdict) == (_subset_search(t, gp) is not None), t.dimension_vector()
            seen += 1
            certified += bool(verdict)
    assert (seen, certified) == (85, 42)


def test_find_presentation_negative_and_positive(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    assert gorenstein_silting_check(reg, "AUTO", gp).verdict != "gorenstein_silting"
    t = direct_sum([reg, simple_module(alg, "ev")], algebra=alg)[0]
    assert gorenstein_silting_check(t, "AUTO", gp).verdict == "gorenstein_silting"


def test_find_presentation_zero_module(gp_dual):
    """The zero module is certified through a pure complement presentation."""
    alg, gp = gp_dual
    cert = gorenstein_silting_check(zero_module(alg), "AUTO", gp)
    assert cert.verdict == "gorenstein_silting"
    assert cert.presentation.map.source.dim > 0
    # Over a2 the maximal padding of the zero module is the regular module -> 0.
    a2 = corpus_load("a2")
    cert = gorenstein_silting_check(zero_module(a2), "AUTO", gp_classification(a2))
    assert cert.verdict == "gorenstein_silting"
    assert cert.presentation.map.source.dim == 3


def test_zero_target_presentation_class(gp_dual):
    alg, gp = gp_dual
    reg = regular_module(alg)
    k = simple_module(alg, "ev")
    theta = zero_target_presentation(reg, "gorenstein_projective")
    # Class = modules receiving no maps from the regular module = zero only.
    assert not d_theta_contains(theta, k)
    assert d_theta_contains(theta, zero_module(alg))


# ---------------------------------------------------------------------------
# Relative evidence memoized on the classification.
# ---------------------------------------------------------------------------


def test_relative_evidence_is_computed_once_per_classification(monkeypatch):
    # Over a2 the simple S(e1) fails against its proper presentation alone
    # and is certified at its maximal padding, the automatic presentation.
    # A second AUTO check reads only evidence that the first one computed.
    alg = corpus_load("a2")
    gp = dataclasses.replace(gp_classification(alg))
    t = simple_module(alg, "e1")
    calls = {name: [] for name in ("cokernel", "is_g_exact", "evaluation_image")}
    for name, seen in calls.items():
        original = getattr(gorenstein, name)

        def counted(*args, _original=original, _seen=seen):
            _seen.append(args)
            return _original(*args)

        monkeypatch.setattr(gorenstein, name, counted)
    cert = gorenstein_silting_check(t, "AUTO", gp)
    assert cert.presentation is not proper_gp_presentation(t, gp) and cert.verdict == "gorenstein_silting"
    after_search = {name: len(seen) for name, seen in calls.items()}
    assert gorenstein_silting_check(t, "AUTO", gp).verdict == "gorenstein_silting"
    assert {name: len(seen) for name, seen in calls.items()} == after_search

    built = [v for v in gp._memo.values() if isinstance(v, gorenstein._UniversalApproximation)]
    assert len(built) == len(gp.modules)
    # One cokernel per universal map, one G-exactness test per map that
    # reached it (plus the certificate of t's proper presentation), and one
    # relative generation test per probe.
    assert len(calls["cokernel"]) == len(built)
    assert len(calls["is_g_exact"]) == 1 + sum(c._g_exact is not None for c in built)
    probes = enumerate_indecomposables(alg, gp.dim_bound)
    assert [u for _, u in calls["evaluation_image"]] == probes
    assert gorenstein_silting_check(t, proper_gp_presentation(t, gp), gp).verdict == "not"


def _memo_reference_cases():
    gamma0 = corpus_load("gamma0")
    for alg in (corpus_load("a2"), corpus_load("dualnum"), gamma0.a, gamma0.b):
        pool = enumerate_indecomposables(alg, 2)
        modules = [zero_module(alg)] + [
            direct_sum([pool[i] for i in combo], algebra=alg)[0]
            for r in (1, 2)
            for combo in itertools.combinations(range(len(pool)), r)
        ]
        yield gp_classification(alg), modules


def test_memoized_relative_evidence_matches_a_cold_classification():
    def evidence(gp, t, cold):
        fresh = (lambda: dataclasses.replace(gp)) if cold else (lambda: gp)
        theta = proper_gp_presentation(t, fresh())
        return (
            gorenstein_silting_check(t, "AUTO", fresh()).to_json(),
            [left_approximation_sequence(g, t, theta, fresh()).to_json() for g in gp.modules],
        )

    for gp, modules in _memo_reference_cases():
        for t in modules:
            warm = [evidence(gp, t, cold=False) for _ in range(2)]
            assert warm[0] == warm[1] == evidence(gp, t, cold=True)

    # The transported searches of the gluing driver's atom b over gamma0:
    # each glued GP module's top or bottom part, searched into x or y and
    # carried into the glued algebra by its side's embedding.
    tctx = corpus_load("gamma0")
    gpg = gp_classification(tctx)
    parts = [_module_to_triple(tctx, g) for g in gpg.modules]
    xs = [zero_module(tctx.a), simple_module(tctx.a, tctx.a.idempotents[0][0])]
    ys = [zero_module(tctx.b), simple_module(tctx.b, tctx.b.idempotents[0][0]), regular_module(tctx.b)]

    def transported(x, y, gp):
        theta_x = proper_gp_presentation(x, gp_classification(tctx.a))
        theta = glued_gp_presentation(tctx, theta_x, proper_gp_presentation(y, gp_classification(tctx.b)))
        out = []
        for triple in parts:
            side, part, t_side = ("a", triple.x, x) if triple.y.dim == 0 else ("b", triple.y, y)
            seq = left_approximation_sequence(part, t_side, theta, gp, transport=_embedding(tctx, side))
            out.append((seq.to_json(), seq.phi and (seq.phi.target.encode(), seq.phi.matrix)))
        return out

    for x, y in itertools.product(xs, ys):
        warm = [transported(x, y, gpg) for _ in range(2)]
        assert warm[0] == warm[1] == transported(x, y, dataclasses.replace(gpg))


def test_a_gluing_pass_builds_one_transported_table_per_distinct_search(monkeypatch):
    # The atom-b searches of one gluing suite pass: 45 transported searches
    # over 13 distinct (p, t, side), each distinct universal map built once.
    keys, searches = [], []

    class Counted(gorenstein._UniversalApproximation):
        def __init__(self, p, t, transport=None):
            if transport is not None:
                keys.append((p, t, transport))
            super().__init__(p, t, transport)

    search = rmod.left_approximation_sequence

    def counted_search(*args, **kwargs):
        searches.append(len(args) > 5 and args[5] is not None)
        return search(*args, **kwargs)

    monkeypatch.setattr(gorenstein, "_UniversalApproximation", Counted)
    monkeypatch.setattr(rmod, "left_approximation_sequence", counted_search)
    run_suite("gluing")
    assert len(keys) == len(set(keys)) == 13
    assert sum(searches) == 45


def test_a_gluing_pass_decomposes_no_recorded_sum(monkeypatch):
    # The summand classes of t are read off its record, and membership of a
    # cokernel in add(t) is one factorization test, so no module with more
    # than one recorded summand is decomposed whole.
    whole_sums = []
    decomposition = modules._decomposition

    def counted(m):
        if len(summands(m)) > 1:
            whole_sums.append(m)
        return decomposition(m)

    monkeypatch.setattr(modules, "_decomposition", counted)
    run_suite("gluing")
    assert whole_sums == []


def test_a_gluing_pass_frees_its_context_without_the_cyclic_collector(monkeypatch):
    # The transported tables live in the context's memo, so the embeddings
    # that key them must not hold the context strongly.
    contexts = []

    def load(name, _load=suites.corpus_load):
        obj = _load(name)
        contexts.append(weakref.ref(obj))
        return obj

    monkeypatch.setattr(suites, "corpus_load", load)
    gc.disable()
    try:
        run_suite("gluing")
        assert [ref() for ref in contexts] == [None]
    finally:
        gc.enable()
