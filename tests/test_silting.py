"""Two-term membership classes, certificates, enumeration, tensor transport."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import F2, QQ, permuted_actions, quiver_a2, quiver_dual_numbers, quiver_kxk

from silting_forge.algebra import ValidationError, compile_quiver_algebra, derive_algebra
from silting_forge.exactlinalg import Matrix, row_space_basis
from silting_forge import modules, silting
from silting_forge.io import algebra_from_json, corpus_load
from silting_forge.modules import (
    Module,
    ModuleMap,
    Presentation,
    ar_translate,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    evaluation_image,
    hom_dim,
    indecomposable_projectives,
    is_isomorphic,
    minimal_projective_presentation,
    precompose_corank,
    regular_module,
    simple_module,
    tensor_over_field,
    zero_module,
)
from silting_forge.silting import (
    SiltingCertificate,
    d_sigma_contains,
    direct_sum_presentation,
    enumerate_silting,
    gen_contains,
    kernel_top_multiplicities,
    presentation_from_map,
    presentation_with_complement,
    silting_check,
    tensor_silting,
    zero_target_presentation,
)


F2_JSON = {"kind": "prime", "p": 2}
F3_JSON = {"kind": "prime", "p": 3}


def projectives_by_label(alg):
    return {lbl: p for p, lbl in indecomposable_projectives(alg)}


# ---------------------------------------------------------------------------
# Membership tests.
# ---------------------------------------------------------------------------


def test_d_sigma_zero_source_contains_everything(a2):
    reg = regular_module(a2)
    smap = ModuleMap(zero_module(a2), reg, Matrix.zeros(a2.field, reg.dim, 0))
    for m in enumerate_indecomposables(a2, 3):
        assert d_sigma_contains(smap, m)


def test_d_sigma_radical_inclusion(a2):
    sigma = minimal_projective_presentation(simple_module(a2, "e1"))
    assert d_sigma_contains(sigma, simple_module(a2, "e1"))
    assert not d_sigma_contains(sigma, simple_module(a2, "e2"))


def test_d_sigma_rejects_wrong_kind(a2):
    base = minimal_projective_presentation(simple_module(a2, "e1"))
    relabeled = Presentation(
        kind="gorenstein_projective",
        map=base.map,
        cokernel=base.cokernel,
        coker_map=base.coker_map,
        certificates={},
    )
    with pytest.raises(ValidationError):
        d_sigma_contains(relabeled, simple_module(a2, "e1"))


def test_d_sigma_rejects_non_projective_endpoints(a2):
    s1 = simple_module(a2, "e1")
    ident = ModuleMap(s1, s1, Matrix.identity(a2.field, 1))
    with pytest.raises(ValidationError):
        d_sigma_contains(ident, s1)


def test_gen_contains_basics(a2):
    s1 = simple_module(a2, "e1")
    s2 = simple_module(a2, "e2")
    p = projectives_by_label(a2)
    assert gen_contains(s1, zero_module(a2))
    assert gen_contains(s1, direct_sum([s1, s1], algebra=a2)[0])
    assert not gen_contains(s1, s2)
    assert gen_contains(p["e1"], s1)
    assert not gen_contains(s1, p["e1"])


# ---------------------------------------------------------------------------
# silting_check verdicts.
# ---------------------------------------------------------------------------


def test_regular_module_is_silting_on_corpus(a2, dual, a3rel, kxk, point):
    for alg in (a2, dual, a3rel, kxk, point):
        cert = silting_check(regular_module(alg))
        assert cert.verdict == "silting"
        assert cert.tau_rigid is True
        assert cert.support["count_identity"]
        assert cert.mismatch is None


def test_simple_plus_projective_is_silting(a2):
    p = projectives_by_label(a2)
    t = direct_sum([simple_module(a2, "e1"), p["e1"]], algebra=a2)[0]
    cert = silting_check(t)
    assert cert.verdict == "silting"
    assert cert.support["module_classes"] == 2
    assert cert.support["complement_classes"] == 0


def test_verdict_depends_on_presentation(a2):
    p = projectives_by_label(a2)
    p2 = p["e2"]
    # Minimal presentation 0 -> P(2): class is everything, generation is not.
    plain = silting_check(p2)
    assert plain.verdict == "not_silting"
    assert plain.mismatch is not None
    assert plain.mismatch["dimension_vector"] == {"e1": 1, "e2": 0}
    # Padded presentation P(1) -> P(2) via the zero map: support pair completes.
    padded = silting_check(p2, presentation_with_complement(p2, [p["e1"]]))
    assert padded.verdict == "silting"
    assert padded.support["complement_multiplicities"] == {"e1": 1, "e2": 0}


def test_lone_projective_verdicts(a2):
    p1 = projectives_by_label(a2)["e1"]
    # Full sweep finds a witness in the class that generation misses.
    swept = silting_check(p1)
    assert swept.verdict == "not_silting"
    assert swept.mismatch is not None
    assert swept.mismatch["in_d_sigma"] and not swept.mismatch["in_gen"]
    # Without probes the rigid-but-incomplete support pair is all we know.
    unswept = silting_check(p1, probe=[])
    assert unswept.verdict == "partial_silting_only"
    assert unswept.tau_rigid is True
    assert unswept.mismatch is None
    assert not unswept.support["count_identity"]


def test_non_rigid_module_is_not_silting(dual):
    k = simple_module(dual, "ev")
    cert = silting_check(k)
    assert cert.verdict == "not_silting"
    assert cert.tau_rigid is False


def test_zero_module_silting_with_full_complement(a2):
    z = zero_module(a2)
    full = [p for p, _ in indecomposable_projectives(a2)]
    cert = silting_check(z, presentation_with_complement(z, full))
    assert cert.verdict == "silting"
    assert cert.support["module_classes"] == 0
    assert cert.support["complement_classes"] == 2
    # With the empty presentation the class is everything and the verdict flips.
    assert silting_check(z).verdict == "not_silting"


def test_certificate_carries_static_coproduct_note(a2):
    cert = silting_check(regular_module(a2))
    assert any("coproduct closure" in n for n in cert.notes)


def test_rational_field_restricts_to_rigidity_route():
    alg = compile_quiver_algebra(quiver_a2(field=QQ))
    cert = silting_check(regular_module(alg))
    assert cert.verdict == "silting"
    assert cert.probes == []
    assert any("rationals" in n for n in cert.notes)


def test_silting_module_verdict_over_the_rationals():
    # The support-τ-tilting ladder reads no probe, so over Q it decides what
    # silting_check at the padded minimal presentation decides, and reads
    # dim Hom(t, τt) without building τ.
    a2q = compile_quiver_algebra(quiver_a2(field=QQ))
    dq = compile_quiver_algebra(quiver_dual_numbers(field=QQ))
    p = projectives_by_label(a2q)
    s1, s2, sv = simple_module(a2q, "e1"), simple_module(a2q, "e2"), simple_module(dq, "ev")
    expected = [
        (zero_module(a2q), "silting", 0, 0),
        (regular_module(a2q), "silting", 2, 2),
        (p["e1"], "partial_silting_only", 1, 2),
        (s1, "silting", 1, 1),
        (direct_sum([p["e1"], s1], algebra=a2q)[0], "silting", 2, 2),
        (direct_sum([s1, s2], algebra=a2q)[0], "not_silting", 2, 2),
        (regular_module(dq), "silting", 1, 1),
        (sv, "not_silting", 1, 1),
    ]
    for t, verdict, classes, supported in expected:
        got = silting.silting_module_verdict(t)
        assert got == {
            "verdict": verdict,
            "hom_to_translate_dim": hom_dim(t, ar_translate(t)),
            "summand_classes": classes,
            "supported_vertices": supported,
        }
        unsupported = [q for q, lbl in indecomposable_projectives(t.algebra) if t.dimension_vector()[lbl] == 0]
        padded = presentation_with_complement(t, unsupported) if unsupported else "AUTO"
        assert (silting_check(t, padded).verdict == "silting") == (verdict == "silting")


def test_supplied_presentation_must_match_module(a2):
    s1 = simple_module(a2, "e1")
    s2 = simple_module(a2, "e2")
    with pytest.raises(ValidationError):
        silting_check(s2, minimal_projective_presentation(s1))


def test_kernel_top_multiplicities_reads_complement(a2):
    s1 = simple_module(a2, "e1")
    p = projectives_by_label(a2)
    minimal = minimal_projective_presentation(s1)
    assert kernel_top_multiplicities(minimal.map) == {"e1": 0, "e2": 0}
    padded = presentation_with_complement(s1, [p["e2"]])
    assert kernel_top_multiplicities(padded.map) == {"e1": 0, "e2": 1}


def test_add_invariance_under_doubling(a2):
    p = projectives_by_label(a2)
    t = direct_sum([simple_module(a2, "e1"), p["e1"]], algebra=a2)[0]
    single = silting_check(t)
    doubled_pres = direct_sum_presentation(
        [minimal_projective_presentation(t)] * 2
    )
    doubled = silting_check(direct_sum([t, t], algebra=a2)[0], doubled_pres)
    assert single.verdict == doubled.verdict == "silting"

    p2 = p["e2"]
    bad = direct_sum_presentation([minimal_projective_presentation(p2)] * 2)
    assert (
        silting_check(direct_sum([p2, p2], algebra=a2)[0], bad).verdict
        == silting_check(p2).verdict
        == "not_silting"
    )


def test_no_probe_rigidity_contradictions_on_corpus(a2, dual, kxk):
    for alg in (a2, dual, kxk):
        for m in enumerate_indecomposables(alg, 3):
            assert silting_check(m).verdict != "undecided"


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def test_enumerate_counts(a2, dual, kxk):
    for alg, expected in ((a2, 5), (dual, 2), (kxk, 4)):
        certs = enumerate_silting(alg, 3)
        assert len(certs) == expected
        assert all(c.verdict == "silting" for c in certs)


def test_enumerate_is_deterministic(a2):
    first = [c.module.encode() for c in enumerate_silting(a2, 3)]
    second = [c.module.encode() for c in enumerate_silting(a2, 3)]
    assert first == second


def test_enumerate_classes_fill_vertex_count(a2):
    for cert in enumerate_silting(a2, 3):
        assert (
            cert.support["module_classes"] + cert.support["complement_classes"]
            == cert.support["vertex_count"]
        )


def _reference_enumerate(alg, dim_bound, probe=None):
    """The subset scan that enumerate_silting replaced: every candidate gets
    a full silting_check against the minimal presentation of the sum padded
    by its projective complement.  With no ``probe`` given, the probes are
    the pool, named by its bound."""
    pool = enumerate_indecomposables(alg, dim_bound)
    projs = indecomposable_projectives(alg)
    nverts = len(alg.idempotents)
    translates = [ar_translate(m) for m in pool]
    rigid = [i for i, m in enumerate(pool) if hom_dim(m, translates[i]) == 0]
    probe_list = list(probe) if probe is not None else pool
    results = []
    for r in range(nverts + 1):
        for combo in itertools.combinations(rigid, r):
            if any(hom_dim(pool[i], translates[j]) for i in combo for j in combo if i != j):
                continue
            t, _, _ = direct_sum([pool[i] for i in combo], algebra=alg)
            supported = {lbl for lbl, d in t.dimension_vector().items() if d > 0}
            comp = [p for p, lbl in projs if lbl not in supported]
            if len(combo) + len(comp) != nverts or any(hom_dim(p, t) for p in comp):
                continue
            cert = silting_check(t, presentation_with_complement(t, comp), probe=dim_bound if probe is None else probe_list)
            if cert.verdict == "silting":
                results.append(cert)
    return results


def _from_json(vertices, arrows, field=F2_JSON, relations=()):
    return algebra_from_json(
        {
            "field": field,
            "quiver": {
                "vertices": vertices,
                "arrows": [{"name": f"a{k}", "source": s, "target": t} for k, (s, t) in enumerate(arrows)],
            },
            "relations": list(relations),
        }
    )


def _linear(n, field=F2_JSON):
    """1 -> 2 -> ... -> n, no relations."""
    return _from_json([str(i) for i in range(1, n + 1)], [(str(i), str(i + 1)) for i in range(1, n)], field)


def _d4():
    """D_4 with its three arms pointing at the centre 0."""
    return _from_json(["0", "1", "2", "3"], [("1", "0"), ("2", "0"), ("3", "0")])


def _f3_a2xa2():
    a2 = _linear(2, F3_JSON)
    return derive_algebra(a2, "tensor", b=a2)[0]


_A3REL_F3 = {
    "field": F3_JSON,
    "quiver": {
        "vertices": ["1", "2", "3"],
        "arrows": [{"name": "a", "source": "1", "target": "2"}, {"name": "b", "source": "2", "target": "3"}],
    },
    "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
}

_REFERENCE_CASES = {
    "a2": (lambda: corpus_load("a2"), 3),
    "a3rel": (lambda: corpus_load("a3rel"), 3),
    "dualnum": (lambda: corpus_load("dualnum"), 3),
    "kxk": (lambda: corpus_load("kxk"), 3),
    "a2xa2": (lambda: corpus_load("a2xa2"), 3),
    "F3-a2": (lambda: _linear(2, F3_JSON), 3),
    "F3-a3": (lambda: _linear(3, F3_JSON), 3),
    "F3-a3rel": (lambda: algebra_from_json(_A3REL_F3), 3),
    "F3-a2xa2": (_f3_a2xa2, 2),
}


def _assert_same_enumeration(got, want):
    assert [c.to_json() for c in got] == [c.to_json() for c in want]
    assert [c.module.encode() for c in got] == [c.module.encode() for c in want]
    for cert, ref in zip(got, want):
        assert cert.presentation.cokernel is cert.module
        assert is_isomorphic(cert.presentation.cokernel, ref.module) is not None


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_enumeration_matches_the_subset_scan_reference(case):
    make, bound = _REFERENCE_CASES[case]
    alg = make()
    _assert_same_enumeration(enumerate_silting(alg, bound), _reference_enumerate(alg, bound))


def test_enumeration_matches_the_reference_with_supplied_probes(a3rel):
    # Probes other than the pool: every indecomposable up to dimension 3 and
    # the regular module, against a pool bounded by dimension 2.
    probes = enumerate_indecomposables(a3rel, 3) + [regular_module(a3rel)]
    got = enumerate_silting(a3rel, 2, probe=probes)
    _assert_same_enumeration(got, _reference_enumerate(a3rel, 2, probe=probes))
    assert got and all(len(c.probes) == len(probes) for c in got)


def _assert_same_presentation(got, want):
    for attr in ("map", "coker_map"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.matrix.data == w.matrix.data, attr
        assert g.source.dim == w.source.dim and g.target.dim == w.target.dim, attr
    assert got.kind == want.kind
    assert got.cokernel.dim == want.cokernel.dim
    for lbl in got.cokernel.algebra.labels:
        assert got.cokernel.action[lbl].data == want.cokernel.action[lbl].data, lbl


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_an_enumerated_result_builds_the_sum_of_its_blocks(case):
    # A result keeps its blocks and builds its presentation on first read:
    # that must be the presentation direct_sum_presentation makes of them,
    # and to_json, which reads only the blocks, must not change once built.
    make, bound = _REFERENCE_CASES[case]
    alg = make()
    certs = enumerate_silting(alg, bound)
    assert certs
    before = [c.to_json() for c in certs]
    for cert in certs:
        reference = direct_sum_presentation(list(cert.blocks), algebra=alg)
        _assert_same_presentation(cert.presentation, reference)
        assert cert.presentation.cokernel is cert.module
    assert [c.to_json() for c in certs] == before


def test_enumerated_results_build_only_what_is_read(monkeypatch):
    calls = []
    original = silting.direct_sum_presentation

    def counted(parts, algebra=None):
        calls.append(len(parts))
        return original(parts, algebra)

    monkeypatch.setattr(silting, "direct_sum_presentation", counted)
    make, bound = _REFERENCE_CASES["F3-a3rel"]
    alg = make()
    assert len(enumerate_silting(alg, bound)) == 12
    assert calls == []
    certs = enumerate_silting(alg, bound)
    for cert in certs:
        cert.to_json()
    assert calls == []
    for k, cert in enumerate(certs[:4]):
        assert cert.module is cert.presentation.cokernel
        assert cert.presentation is cert.presentation
        assert calls == [len(c.blocks) for c in certs[: k + 1]]
    # Reading only the module builds the presentation it is the cokernel of.
    certs[4].module
    assert len(calls) == 5


@pytest.mark.parametrize("name", ["a2", "a3rel", "dualnum", "kxk"])
def test_membership_tests_are_additive_over_summands(name):
    alg = corpus_load(name)
    pool = enumerate_indecomposables(alg, 3)
    projs = indecomposable_projectives(alg)
    sigmas = [minimal_projective_presentation(m) for m in pool]
    outcomes = set()
    for i, j in itertools.combinations_with_replacement(range(len(pool)), 2):
        q, lbl = projs[(i + j) % len(projs)]
        to_zero = zero_target_presentation(q)
        summed = direct_sum_presentation([sigmas[i], sigmas[j], to_zero], algebra=alg)
        t = direct_sum([pool[i], pool[j]], algebra=alg)[0]
        for m in pool:
            vanishes = m.dimension_vector()[lbl] == 0
            assert d_sigma_contains(to_zero, m) == vanishes
            blocks = d_sigma_contains(sigmas[i], m) and d_sigma_contains(sigmas[j], m) and vanishes
            assert d_sigma_contains(summed, m) == blocks
            spans = evaluation_image(pool[i], m).data + evaluation_image(pool[j], m).data
            in_gen = gen_contains(t, m)
            assert in_gen == (row_space_basis(spans, alg.field, m.dim).nrows == m.dim)
            outcomes.add((blocks, in_gen))
    assert len(outcomes) > 1


def test_silting_counts_are_catalan_and_d4():
    # Hereditary algebras: support tau-tilting modules are clusters, C_(n+1)
    # for linear A_n and 50 for D_4, whose indecomposable of dimension 5 a
    # bound of 4 leaves out.
    for n, count in ((2, 5), (3, 14), (4, 42)):
        assert len(enumerate_silting(_linear(n), n)) == count
    d4 = _d4()
    assert len(enumerate_silting(d4, 5)) == 50
    assert len(enumerate_silting(d4, 4)) == 42
    assert len(enumerate_silting(corpus_load("a2xa2"), 4)) == 46


def test_enumeration_presents_each_pool_member_once(monkeypatch):
    # One minimal presentation per member gives both its rigidity and its
    # compatibility with the others, read off Hom(sigma, -); tau is never built.
    assert not hasattr(silting, "ar_translate")
    alg = _f3_a2xa2()
    pool = enumerate_indecomposables(alg, 2)
    calls = []
    original = modules.minimal_projective_presentation

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(modules, "minimal_projective_presentation", counted)
    monkeypatch.setattr(silting, "minimal_projective_presentation", counted)
    assert len(enumerate_silting(alg, 2)) == 24
    assert len(calls) == len(pool) == 8
    assert all(c is m for c, m in zip(calls, pool))


@pytest.mark.parametrize(
    "name, bound, count", [("a2", 3, 5), ("a3rel", 3, 12), ("dualnum", 3, 2), ("kxk", 3, 4), ("a2xa2", 4, 46)]
)
def test_semibricks_count_the_silting_modules(name, bound, count):
    # Asai (Semibricks, IMRN 2020): support tau-tilting modules are in
    # bijection with the left-finite semibricks, sets of bricks (End = k)
    # with no nonzero maps between any two; over these tau-tilting finite
    # algebras every semibrick is left-finite.  Their bricks have dimension
    # at most the bound.
    alg = corpus_load(name)
    bricks = [m for m in enumerate_indecomposables(alg, bound) if hom_dim(m, m) == 1]
    apart = {
        (a, b)
        for a, b in itertools.combinations(range(len(bricks)), 2)
        if hom_dim(bricks[a], bricks[b]) == 0 and hom_dim(bricks[b], bricks[a]) == 0
    }

    def extensions(chosen, start):
        # the semibricks that extend ``chosen`` by bricks from ``start`` on
        return 1 + sum(
            extensions(chosen + [b], b + 1)
            for b in range(start, len(bricks))
            if all((a, b) in apart for a in chosen)
        )

    assert extensions([], 0) == len(enumerate_silting(alg, bound)) == count


# ---------------------------------------------------------------------------
# Tensor transport.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tensor_setup():
    alg = compile_quiver_algebra(quiver_a2())
    tensor_alg, _ = derive_algebra(alg, "tensor", b=alg)
    probes = enumerate_indecomposables(tensor_alg, 2)
    return alg, tensor_alg, probes


def test_tensor_of_regulars_is_silting(tensor_setup):
    alg, tensor_alg, probes = tensor_setup
    reg = regular_module(alg)
    ts, pres, cert, report = tensor_silting(reg, "AUTO", reg, "AUTO", probe=probes, tensor_alg=tensor_alg)
    assert ts.dim == reg.dim * reg.dim
    assert cert.verdict == "silting"
    assert report["termwise_map_presents_tensor_module"]


def test_tensor_of_simples_reports_mismatch(tensor_setup):
    alg, tensor_alg, probes = tensor_setup
    s1 = simple_module(alg, "e1")
    ts, pres, cert, report = tensor_silting(s1, "AUTO", s1, "AUTO", probe=probes, tensor_alg=tensor_alg)
    assert cert.verdict == "not_silting"
    assert cert.mismatch is not None
    # The witness lives at the far corner vertex, unreachable by the kernel top.
    assert cert.mismatch["dimension_vector"]["e2(x)e2"] == 1
    assert not cert.support["count_identity"]
    # S1 (x) S1 is silting all the same, with the support-completed presentation.
    assert report["existential_verdict"] == "silting"


def test_tensor_degenerate_presentation_is_flagged(tensor_setup):
    alg, tensor_alg, probes = tensor_setup
    reg = regular_module(alg)
    s1 = simple_module(alg, "e1")
    zero_src = ModuleMap(zero_module(alg), reg, Matrix.zeros(alg.field, reg.dim, 0))
    ts, pres, cert, report = tensor_silting(
        reg, presentation_from_map(zero_src), s1, "AUTO", probe=probes, tensor_alg=tensor_alg
    )
    assert not report["termwise_map_presents_tensor_module"]
    assert report["termwise_cokernel_dim"] != report["tensor_module_dim"]
    # The totalized presentation still presents the tensor module.
    assert pres.cokernel.dim == report["tensor_module_dim"]


def test_tensor_modules_lie_in_the_direct_enumeration_exactly_when_silting():
    # The tensor suite's modules against the silting modules enumerated over
    # the tensor algebra itself: a tensor module is isomorphic to one of them
    # exactly when its existential verdict is silting.  Only pair (4, 4) is not.
    alg, tensor_alg = corpus_load("a2"), corpus_load("a2xa2")
    direct = [c.module for c in enumerate_silting(tensor_alg, 4)]
    assert len(direct) == 46
    certs = enumerate_silting(alg, 3)
    outside = []
    for (i, ci), (j, cj) in itertools.product(enumerate(certs), repeat=2):
        ts, _, _, report = tensor_silting(
            ci.module, ci.presentation, cj.module, cj.presentation, tensor_alg=tensor_alg, dim_bound=2
        )
        listed = any(is_isomorphic(ts, m) is not None for m in direct)
        assert listed == (report["existential_verdict"] == "silting")
        if not listed:
            outside.append((i, j))
    assert outside == [(4, 4)]


def test_summand_reads_match_the_whole_module():
    # dim Hom(t, tau t) and the summand-class count, read off the recorded
    # summands, against the corank at t's own minimal presentation and
    # decompose of t whole: on the tensor suite's 25 modules, and on sums of
    # the small indecomposables of the corpus algebras, repeats, nesting and
    # a summand next to a copy of it in another basis included.
    alg, tensor_alg = corpus_load("a2"), corpus_load("a2xa2")
    certs = enumerate_silting(alg, 3)
    ts = [tensor_over_field(ci.module, cj.module, tensor_alg) for ci, cj in itertools.product(certs, repeat=2)]
    for name in ("a2", "a3rel", "dualnum", "kxk"):
        corpus = corpus_load(name)
        pool = enumerate_indecomposables(corpus, 2)
        pairs = [direct_sum([x, y])[0] for x, y in itertools.combinations_with_replacement(pool, 2)]
        ts += pairs + [direct_sum([pairs[0], pool[-1], pairs[-1]])[0]]
        big = max(pool, key=lambda m: m.dim)
        if big.dim > 1:
            ts.append(direct_sum([big, Module(corpus, big.dim, permuted_actions(big))])[0])
            assert len(set(x for x, _ in modules.summands(ts[-1]))) == 2
    # 9 tensor modules have a zero factor and 4 two indecomposable factors
    assert sum(len(modules.summands(t)) > 1 for t in ts[:25]) == 12
    assert all(len(modules.summands(t)) > 1 for t in ts[25:])
    seen = set()
    for t in ts:
        got = (silting._hom_to_translate_dim(t), len(silting.summand_classes(t)))
        assert got == (precompose_corank(minimal_projective_presentation(t).map, t), len(decompose(t)))
        seen.add((got[0] > 0, got[1]))
    assert {True, False} == {tau for tau, _ in seen} and {0, 1, 2, 4} <= {classes for _, classes in seen}


def test_a_projective_module_and_its_memoized_presentation_form_no_cycle(a2):
    # The minimal presentation of a projective t is 0 -> t; the memo on t
    # keeps it without referring back to t, so dropping t frees it with the
    # cyclic collector off.
    p1, p2 = (p for p, _ in indecomposable_projectives(a2))
    gc.collect()
    gc.disable()
    try:
        t = direct_sum([p1, p2])[0]
        assert silting.silting_module_verdict(t)["verdict"] == "silting"
        assert silting._minimal_map(t).target is t
        dropped = weakref.ref(t)
        del t
        assert dropped() is None
    finally:
        gc.enable()


def test_tensor_probe_membership_recorded(tensor_setup):
    alg, tensor_alg, probes = tensor_setup
    # T = P2 (+) S1 is not tau-rigid, so T (x) T lies outside its totalized
    # class and silting_check skips the probe sweep; the regular module does not.
    not_tau_rigid, _, _ = direct_sum([projectives_by_label(alg)["e2"], simple_module(alg, "e1")], algebra=alg)
    for t, swept in [(regular_module(alg), True), (not_tau_rigid, False)]:
        ts, pres, cert, report = tensor_silting(t, "AUTO", t, "AUTO", probe=probes, tensor_alg=tensor_alg)
        assert bool(cert.probes) == swept


def test_unsupplied_probes_are_named_by_their_bound():
    # With no probe given, tensor_silting and enumerate_silting sweep every
    # indecomposable up to their dimension bound, and their notes say so;
    # over Q tensor_silting sweeps nothing and says that instead.
    a2 = corpus_load("a2")
    _, _, cert, _ = tensor_silting(regular_module(a2), "AUTO", simple_module(a2, "e1"), "AUTO")
    assert "probe sweep: all indecomposables of dimension <= 2" in cert.notes
    assert "probe sweep: supplied probe list" not in cert.notes and len(cert.probes) == 8
    a2q = compile_quiver_algebra(quiver_a2(field=QQ))
    _, _, cert, _ = tensor_silting(regular_module(a2q), "AUTO", simple_module(a2q, "e1"), "AUTO")
    assert "probe sweep unavailable over the rationals; verdict rests on the rigidity certificate alone" in cert.notes
    assert "probe sweep: supplied probe list" not in cert.notes and cert.probes == []
    certs = enumerate_silting(a2, 3)
    assert certs and all("probe sweep: all indecomposables of dimension <= 3" in c.notes for c in certs)
    listed = enumerate_silting(a2, 3, probe=enumerate_indecomposables(a2, 2))
    assert listed and all("probe sweep: supplied probe list" in c.notes for c in listed)


# ---------------------------------------------------------------------------
# Class-closure properties on witnesses.
# ---------------------------------------------------------------------------

_CLOSURE_ALGEBRAS = [
    compile_quiver_algebra(quiver_a2()),
    compile_quiver_algebra(quiver_dual_numbers()),
    compile_quiver_algebra(quiver_kxk()),
]


def _pool(alg):
    return enumerate_indecomposables(alg, 3)


def _submodule_columns(m, coeffs):
    """Column basis of the submodule generated by one coefficient vector."""
    from silting_forge.exactlinalg import row_space_basis

    f = m.algebra.field
    vec = Matrix.column(f, [f.coerce(c) for c in coeffs])
    rows = []
    for i in range(m.algebra.dim):
        img = m.act(m.algebra.basis_vector(i)).mul(vec)
        rows.append([img.data[r][0] for r in range(m.dim)])
    return row_space_basis(rows, f, m.dim).transpose()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_closed_under_sums_quotients_extensions(data):
    from silting_forge.modules import quotient_module, submodule

    alg = data.draw(st.sampled_from(_CLOSURE_ALGEBRAS))
    pool = _pool(alg)
    sigma = minimal_projective_presentation(data.draw(st.sampled_from(pool)))
    m_parts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    m = direct_sum(m_parts, algebra=alg)[0]
    n = data.draw(st.sampled_from(pool))

    # Finite sum closure in both directions.
    both_in = d_sigma_contains(sigma, m) and d_sigma_contains(sigma, n)
    sum_in = d_sigma_contains(sigma, direct_sum([m, n], algebra=alg)[0])
    assert sum_in == both_in

    coeffs = data.draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=m.dim, max_size=m.dim)
    )
    cols = _submodule_columns(m, coeffs)
    sub, _ = submodule(m, cols)
    quo, _ = quotient_module(m, cols)
    m_in = d_sigma_contains(sigma, m)
    sub_in = d_sigma_contains(sigma, sub)
    quo_in = d_sigma_contains(sigma, quo)
    # Quotient closure (images of the class stay in the class).
    if m_in:
        assert quo_in
    # Extension closure: sub and quotient inside forces the middle inside.
    if sub_in and quo_in:
        assert m_in


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_module_in_class_forces_generated_probes_in_class(data):
    alg = data.draw(st.sampled_from(_CLOSURE_ALGEBRAS))
    pool = _pool(alg)
    t = data.draw(st.sampled_from(pool))
    sigma = minimal_projective_presentation(t)
    if not d_sigma_contains(sigma, t):
        return
    for m in pool:
        if gen_contains(t, m):
            assert d_sigma_contains(sigma, m)


def test_certificate_to_json_round_trip(a2):
    import json

    cert = silting_check(regular_module(a2))
    payload = cert.to_json()
    assert payload["verdict"] == "silting"
    json.dumps(payload, sort_keys=True)
