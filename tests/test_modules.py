"""Module layer: hom spaces, decomposition, presentations, translates,
tensors, approximations, and indecomposable enumeration.

Expected values were computed by hand from the defining quivers: over the
two-vertex arrow quiver the indecomposables are the two simples and the
length-two projective; over the dual numbers they are the simple and the
regular module.  Hom dimensions follow from counting paths between vertices.
"""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    F2,
    F3,
    QQ,
    permuted_actions,
    quiver_a2,
    quiver_a3_rel,
    quiver_dual_numbers,
    quiver_kxk,
)
from silting_forge.algebra import (
    Arrow,
    Bimodule,
    DomainError,
    QuiverPresentation,
    ValidationError,
    compile_quiver_algebra,
    derive_algebra,
    opposite_algebra,
)
from silting_forge import exactlinalg, modules
from silting_forge.exactlinalg import FieldSpec, Matrix, invert, nullspace, rank, reduce_mod_row_space, row_space_basis
from silting_forge.gorenstein import gorenstein_report, gp_classification
from silting_forge.io import CORPUS_DIR, corpus_load
from silting_forge.modules import (
    Module,
    ModuleMap,
    UndecidedError,
    _check_commutes,
    ar_translate,
    cokernel,
    conjugate,
    decompose,
    direct_sum,
    enumerate_indecomposables,
    evaluation_image,
    ext_dim,
    hom_coordinates,
    hom_dim,
    hom_module,
    hom_space,
    indecomposable_iso,
    indecomposable_projectives,
    is_isomorphic,
    is_projective,
    kernel,
    minimal_projective_presentation,
    postcompose_rank,
    precompose_corank,
    projective_cover,
    quotient_module,
    regular_module,
    resolution,
    restrict,
    simple_module,
    submodule,
    tensor_over_algebra,
    tensor_over_field,
    validate_module,
    zero_module,
)
from silting_forge.recollement import _col_basis, _layer_module, idempotent_recollement, random_probe_modules


@pytest.fixture
def a2():
    return compile_quiver_algebra(quiver_a2())


@pytest.fixture
def dual():
    return compile_quiver_algebra(quiver_dual_numbers())


@pytest.fixture
def a3rel():
    return compile_quiver_algebra(quiver_a3_rel())


def projectives_of(alg):
    return {lbl: mod for mod, lbl in indecomposable_projectives(alg)}


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_regular_module_is_valid(self, a2):
        reg = regular_module(a2)
        assert reg.dim == 3
        assert reg.dimension_vector() == {"e1": 1, "e2": 2}

    def test_validate_module_accepts_regular(self, a2):
        reg = regular_module(a2)
        again = validate_module(a2, reg.action)
        assert again.dim == 3

    def test_validate_module_rejects_broken_action(self, a2):
        reg = regular_module(a2)
        bad = dict(reg.action)
        bad["a"] = Matrix.identity(F2, 3)  # loop action is incompatible
        with pytest.raises(ValidationError) as err:
            validate_module(a2, bad)
        assert err.value.diagnostics["violations"]

    def test_validate_module_rejects_mismatched_sizes(self, a2):
        reg = regular_module(a2)
        bad = dict(reg.action)
        bad["a"] = Matrix.zeros(F2, 2, 2)
        with pytest.raises(ValidationError):
            validate_module(a2, bad)

    def test_module_map_must_commute(self, a2):
        reg = regular_module(a2)
        with pytest.raises(ValidationError):
            ModuleMap(reg, reg, Matrix.from_rows(F2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    def test_identity_is_a_module_map(self, a2):
        reg = regular_module(a2)
        ident = ModuleMap(reg, reg, Matrix.identity(F2, 3))
        assert ident.is_isomorphism()

    def test_zero_module(self, a2):
        z = zero_module(a2)
        assert z.dim == 0 and z.is_zero()
        assert is_projective(z)
        assert decompose(z) == []

    def test_submodule_rejects_unstable_columns(self, a2):
        # the unit column of the regular module generates everything, but a
        # single radical-complement line at the source vertex is not stable
        reg = regular_module(a2)
        cols = Matrix.from_rows(F2, [[1], [0], [0]])  # span{e1}: a·e1 = a escapes
        with pytest.raises(ValidationError):
            submodule(reg, cols)


def _reference_act(alg, dim, action, vec):
    """The term-by-term sum that ``Module.act`` replaced: a fresh matrix per
    nonzero coefficient, built by ``zeros``, ``scale`` and ``+``."""
    out = Matrix.zeros(alg.field, dim, dim)
    for c, lbl in zip(vec, alg.labels):
        if c != 0:
            out = out + action[lbl].scale(c)
    return out


def _reference_violations(alg, dim, action):
    """The per-pair structure check that ``Module._violations`` replaced:
    dim A² products by dot products, each against ``_reference_act``."""
    f = alg.field
    if set(action) != set(alg.labels):
        return [f"action keys {sorted(action)} do not match basis labels {sorted(alg.labels)}"]
    for lbl, m in action.items():
        if m.nrows != dim or m.ncols != dim:
            return [f"action of {lbl!r} is {m.nrows}x{m.ncols}, expected {dim}x{dim}"]
    if dim == 0:
        return []
    out = []
    if _reference_act(alg, dim, action, alg.unit()) != Matrix.identity(f, dim):
        out.append("unit does not act as the identity")
    mats = [action[lbl] for lbl in alg.labels]
    for i, j in itertools.product(range(alg.dim), repeat=2):
        if exactlinalg._generic_mul(mats[i], mats[j]) != _reference_act(alg, dim, action, alg.constants[i][j]):
            out.append(f"rho({alg.labels[i]})·rho({alg.labels[j]}) != rho({alg.labels[i]}*{alg.labels[j]})")
    return out


def _reported_violations(alg, dim, action):
    """The violations ``Module`` reports for an action: none when it builds."""
    try:
        Module(alg, dim, action)
    except ValidationError as err:
        return err.diagnostics["violations"]
    return []


def _broken_actions(alg, valid, rng):
    """Actions that break the structure constants: one entry changed in one
    action matrix (every label of the first module, one random label of each
    other), a zero action, every idempotent acting as the identity, and two
    wrong label sets."""
    f = alg.field
    broken = []
    for t, mod in enumerate(valid):
        for lbl in alg.labels if t == 0 else [rng.choice(alg.labels)]:
            mat = mod.action[lbl].copy()
            r, c = rng.randrange(mod.dim), rng.randrange(mod.dim)
            mat.data[r][c] = f.add(mat.data[r][c], f.one())
            broken.append((mod.dim, dict(mod.action, **{lbl: mat})))
    reg = valid[0]
    ident = Matrix.identity(f, reg.dim)
    broken.append((2, {lbl: Matrix.zeros(f, 2, 2) for lbl in alg.labels}))
    broken.append((reg.dim, dict(reg.action, **{lbl: ident for lbl, _ in alg.idempotents})))
    missing = dict(reg.action)
    del missing[alg.labels[-1]]
    broken.append((reg.dim, missing))
    broken.append((reg.dim, dict(missing, z=reg.action[alg.labels[-1]])))
    return broken


class TestValidationMatchesReference:
    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_violations_match_the_per_pair_reference(self, field):
        alg = compile_quiver_algebra(quiver_a3_rel(field))
        valid = [regular_module(alg)] + _indecomposables(alg)
        for mod in valid:
            assert mod._violations() == _reference_violations(alg, mod.dim, mod.action) == []
        lists = []
        for dim, action in _broken_actions(alg, valid, random.Random(7)):
            expected = _reference_violations(alg, dim, action)
            assert _reported_violations(alg, dim, action) == expected
            lists.append(expected)
        # A changed entry may give another valid module; the others must put
        # every label on each side of some broken identity.
        pairs = [msg for v in lists for msg in v if msg.startswith("rho(")]
        for x in alg.labels:
            assert any(msg.startswith(f"rho({x})·") for msg in pairs)
            assert any(f"·rho({x}) != " in msg for msg in pairs)
        assert ["unit does not act as the identity"] in lists
        assert sum(v[0].startswith("action keys") for v in lists if v) == 2

    @pytest.mark.parametrize("cells", [1, 200, 1 << 12])
    def test_violations_match_the_reference_in_label_blocks(self, monkeypatch, cells):
        # Each product of the check covers as many labels as fit in
        # _BATCH_CELLS entries: one label at a time, uneven runs, or all.
        monkeypatch.setattr(modules, "_BATCH_CELLS", cells)
        alg = compile_quiver_algebra(quiver_a3_rel(F3))
        valid = [regular_module(alg)] + _indecomposables(alg)
        found = 0
        for dim, action in _broken_actions(alg, valid, random.Random(3)):
            expected = _reference_violations(alg, dim, action)
            assert _reported_violations(alg, dim, action) == expected
            found += len(expected)
        assert found > 20

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_act_matches_the_term_by_term_sum(self, field):
        alg = compile_quiver_algebra(quiver_a3_rel(field))
        rng = random.Random(11)
        vectors = [[field.zero()] * alg.dim, alg.unit()]
        vectors += [alg.basis_vector(i) for i in range(alg.dim)]
        vectors += [[field.random(rng) for _ in range(alg.dim)] for _ in range(20)]
        for mod in [regular_module(alg)] + _indecomposables(alg):
            for vec in vectors:
                assert mod.act(vec) == _reference_act(alg, mod.dim, mod.action, vec)


def _rebuilt(m):
    """The action matrices of ``m`` as new Matrix objects of equal content."""
    return {lbl: Matrix(a.field, a.data) for lbl, a in m.action.items()}


def _counted_violations(monkeypatch) -> list:
    """The dimension of every module validated from now on."""
    calls = []
    original = Module._violations

    def counted(self):
        calls.append(self.dim)
        return original(self)

    monkeypatch.setattr(Module, "_violations", counted)
    return calls


class TestInterning:
    def test_equal_actions_over_one_algebra_give_one_module_validated_once(self, monkeypatch):
        alg = compile_quiver_algebra(quiver_a3_rel(F3))
        reg = regular_module(alg)
        calls = _counted_violations(monkeypatch)
        assert Module(alg, reg.dim, _rebuilt(reg)) is reg and calls == []
        action = permuted_actions(reg)
        assert isinstance(modules._content_key(alg, reg.dim, action)[2], bytes)
        cold = Module(alg, reg.dim, action)
        assert cold is not reg and calls == [reg.dim]
        # Every construction of equal content returns it, with its memos.
        cold.adapted()
        for again in [
            Module(alg, reg.dim, permuted_actions(reg)),
            validate_module(alg, _rebuilt(cold)),
            submodule(cold, Matrix.identity(F3, cold.dim))[0],
            quotient_module(cold, Matrix.zeros(F3, cold.dim, 0))[0],
            direct_sum([cold])[0],
        ]:
            assert again is cold
        assert calls == [reg.dim]
        assert (Module.adapted.__wrapped__,) in cold._memo

    def test_a_separately_built_equal_algebra_gets_its_own_modules(self):
        a, b = compile_quiver_algebra(quiver_a3_rel(F3)), compile_quiver_algebra(quiver_a3_rel(F3))
        assert a is not b and a.content_hash() == b.content_hash()
        ma = regular_module(a)
        mb = Module(b, ma.dim, _rebuilt(ma))
        assert mb is not ma and mb.algebra is b
        ma.adapted()
        assert (Module.adapted.__wrapped__,) not in mb._memo
        assert mb.adapted() is not ma.adapted()

    def test_invalid_input_raises_every_time_and_is_never_stored(self, monkeypatch):
        alg = compile_quiver_algebra(quiver_a3_rel(F3))
        reg = regular_module(alg)
        e1 = alg.labels[0]
        bad_unit = dict(_rebuilt(reg), **{e1: Matrix.zeros(F3, reg.dim, reg.dim)})
        bad_keys = {lbl: a for lbl, a in reg.action.items() if lbl != e1}
        bad_shape = {lbl: Matrix.identity(F3, reg.dim + 1) for lbl in alg.labels}
        calls = _counted_violations(monkeypatch)
        for action in (bad_keys, bad_shape, bad_unit):
            for _ in range(3):
                with pytest.raises(ValidationError) as err:
                    Module(alg, reg.dim, action)
        assert len(calls) == 9
        assert modules._content_key(alg, reg.dim, bad_keys) is None
        assert modules._content_key(alg, reg.dim, bad_shape) is None
        # The last error's traceback still holds the rejected object.
        key = modules._content_key(alg, reg.dim, bad_unit)
        assert err.value and key is not None and key not in modules._INTERNED

    def test_a_dropped_module_leaves_the_table_without_the_collector(self):
        alg = compile_quiver_algebra(quiver_a3_rel(F3))
        reg = regular_module(alg)
        gc.collect()
        gc.disable()
        try:
            action = permuted_actions(reg)
            key = modules._content_key(alg, reg.dim, action)
            m = Module(alg, reg.dim, action)
            m.adapted()
            hom_space(m, reg)
            assert modules._INTERNED.get(key) is m
            ref = weakref.ref(m)
            del m
            alive = ref() is not None
            stored = key in modules._INTERNED
        finally:
            gc.enable()
        assert not alive and not stored

    @pytest.mark.parametrize("field", [FieldSpec("prime", 257), QQ], ids=["F257", "Q"])
    def test_larger_fields_intern_through_the_tuple_key(self, field):
        alg = compile_quiver_algebra(quiver_a2(field))
        reg = regular_module(alg)
        n, labels = reg.dim, alg.labels
        # The regular module in a basis scaled by 256, so an entry leaves a byte.
        scale = Matrix(field, [[field.coerce(256 if i == j == 0 else int(i == j)) for j in range(n)] for i in range(n)])
        action = dict(zip(labels, conjugate(invert(scale), [reg.action[lbl] for lbl in labels], scale)))
        key = modules._content_key(alg, n, action)
        assert isinstance(key[2], tuple)
        big = field.coerce(256)
        assert any(x in (big, field.inv(big)) for row in key[2] for x in row)
        m = Module(alg, n, action)
        assert m is not reg
        assert Module(alg, n, {lbl: Matrix(field, a.data) for lbl, a in action.items()}) is m

    def test_rational_content_interns_by_value_through_integer_pairs(self):
        alg = compile_quiver_algebra(quiver_a2(QQ))
        reg = regular_module(alg)
        n, labels = reg.dim, alg.labels
        # The regular module in the basis (v_0 / 2, v_1, v_2): rho(a) holds 1/2.
        half = Matrix(QQ, [[Fraction(1, 2) if i == j == 0 else Fraction(int(i == j)) for j in range(n)] for i in range(n)])
        action = dict(zip(labels, conjugate(invert(half), [reg.action[lbl] for lbl in labels], half)))
        assert Fraction(1, 2) in action["a"].data[2]
        m = Module(alg, n, action)
        key = modules._content_key(alg, n, action)
        assert all(type(v) is int for pair in key[2] for v in pair) and (1, 2) in key[2]
        # Equal entries made separately, 1/2 as Fraction(2, 4) and so on.
        remade = {lbl: Matrix(QQ, [[Fraction(2 * x.numerator, 2 * x.denominator) for x in row] for row in a.data])
                  for lbl, a in action.items()}
        assert remade["a"].data[2][0] is not action["a"].data[2][0]
        assert Module(alg, n, remade) is m
        # One entry of rho(a) tripled: an isomorphic module of other content.
        tripled = dict(action, a=Matrix(QQ, [[3 * x for x in row] for row in action["a"].data]))
        other = Module(alg, n, tripled)
        assert other is not m and modules._content_key(alg, n, tripled) != key

    def test_f2_content_still_interns_through_bytes(self):
        alg = compile_quiver_algebra(quiver_a3_rel(F2))
        reg = regular_module(alg)
        key = modules._content_key(alg, reg.dim, _rebuilt(reg))
        assert key[2] == b"".join(bytes(row) for lbl in alg.labels for row in reg.action[lbl].data)
        assert Module(alg, reg.dim, _rebuilt(reg)) is reg
        assert Module(alg, reg.dim, permuted_actions(reg)) is not reg


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


class TestHom:
    def test_hom_dimensions_between_projectives(self, a2):
        P = projectives_of(a2)
        assert hom_dim(P["e1"], P["e1"]) == 1
        assert hom_dim(P["e2"], P["e1"]) == 1
        assert hom_dim(P["e1"], P["e2"]) == 0

    def test_hom_between_distinct_simples_vanishes(self, a2):
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        assert hom_dim(S1, S2) == 0
        assert hom_dim(S2, S1) == 0
        assert hom_dim(S1, S1) == 1

    def test_hom_from_projective_counts_vertex_dimension(self, a2, dual, a3rel):
        for alg in (a2, dual, a3rel):
            pool = enumerate_indecomposables(alg, 2)
            sums = [direct_sum(list(pair), algebra=alg)[0] for pair in zip(pool, pool[::-1])]
            for mod in list(pool) + sums:
                for pmod, lbl in indecomposable_projectives(alg):
                    assert hom_dim(pmod, mod) == mod.dimension_vector()[lbl]

    def test_hom_maps_commute_with_action(self, a2):
        P = projectives_of(a2)
        for h in hom_space(P["e2"], P["e1"]):
            for lbl in a2.labels:
                assert h.matrix.mul(P["e2"].action[lbl]) == P["e1"].action[lbl].mul(h.matrix)

    def test_hom_requires_matching_algebras(self, a2, dual):
        with pytest.raises(ValidationError):
            hom_space(regular_module(a2), regular_module(dual))

    def test_endomorphisms_of_regular_have_algebra_dimension(self, a2, dual, a3rel):
        # End(A A) is the opposite algebra acting by right multiplication
        for alg in (a2, dual, a3rel):
            assert hom_dim(regular_module(alg), regular_module(alg)) == alg.dim


# ---------------------------------------------------------------------------
# Kernels, images, cokernels
# ---------------------------------------------------------------------------


def image(fmap):
    """The image of a map, as the kernel of its cokernel projection."""
    return kernel(cokernel(fmap)[1])


class TestMapSpaces:
    def test_cokernel_of_projective_inclusion_is_simple(self, a2):
        P = projectives_of(a2)
        (inc,) = hom_space(P["e2"], P["e1"])
        assert inc.is_injective()
        coker, proj = cokernel(inc)
        assert coker.dim == 1
        S1 = simple_module(a2, "e1")
        assert is_isomorphic(coker, S1) is not None
        assert proj.is_surjective()

    def test_rank_nullity_for_every_basis_hom(self, a2, dual):
        for alg in (a2, dual):
            pool = enumerate_indecomposables(alg, 2)
            for src in pool:
                for tgt in pool:
                    for h in hom_space(src, tgt):
                        ker, kinc = kernel(h)
                        img, iinc = image(h)
                        coker, cproj = cokernel(h)
                        assert ker.dim + img.dim == src.dim
                        assert img.dim + coker.dim == tgt.dim
                        assert img.dim == rank(h.matrix)
                        assert h.compose(kinc).is_zero() and cproj.compose(h).is_zero()
                        assert kinc.is_injective() and iinc.is_injective() and cproj.is_surjective()

    def test_kernel_and_image_carry_inclusions(self, dual):
        reg = regular_module(dual)
        # right multiplication by the loop is a self-map with kernel = image
        (x_map,) = [h for h in hom_space(reg, reg) if not h.is_isomorphism() and not h.is_zero()]
        ker, kinc = kernel(x_map)
        img, iinc = image(x_map)
        assert ker.dim == 1 and img.dim == 1
        assert kinc.is_injective() and iinc.is_injective()
        assert is_isomorphic(ker, img) is not None
        # the two inclusions have the same column span inside the regular module
        assert rank(Matrix.hstack([kinc.matrix, iinc.matrix])) == 1


# ---------------------------------------------------------------------------
# Direct sums and decomposition
# ---------------------------------------------------------------------------


class TestDecompose:
    def test_regular_module_splits_into_the_projectives(self, a2):
        reg = regular_module(a2)
        parts = decompose(reg)
        assert sorted((p.dim, mult) for p, mult, _ in parts) == [(1, 1), (2, 1)]
        P = projectives_of(a2)
        reps = {p.dim: p for p, _, _ in parts}
        assert is_isomorphic(reps[1], P["e2"]) is not None
        assert is_isomorphic(reps[2], P["e1"]) is not None

    def test_splitting_maps_recompose_to_identity(self, a2, dual):
        for alg in (a2, dual):
            pool = enumerate_indecomposables(alg, 2)
            big, _, _ = direct_sum([pool[0], pool[-1], pool[0]], algebra=alg)
            parts = decompose(big)
            total = Matrix.zeros(alg.field, big.dim, big.dim)
            for part, mult, pairs in parts:
                assert len(pairs) == mult
                for inj, proj in pairs:
                    comp = proj.compose(inj)
                    assert comp.matrix == Matrix.identity(alg.field, part.dim)
                    total = total + inj.matrix.mul(proj.matrix)
            assert total == Matrix.identity(alg.field, big.dim)

    def test_multiplicities_group_isomorphic_copies(self, dual):
        reg = regular_module(dual)
        k = simple_module(dual, "ev")
        big, _, _ = direct_sum([reg, k, reg], algebra=dual)
        parts = decompose(big)
        assert sorted((p.dim, mult) for p, mult, _ in parts) == [(1, 1), (2, 2)]

    def test_indecomposable_is_its_own_decomposition(self, a2):
        P = projectives_of(a2)
        parts = decompose(P["e1"])
        assert len(parts) == 1 and parts[0][1] == 1

    def test_rational_local_endomorphism_ring_is_certified(self):
        dq = compile_quiver_algebra(quiver_dual_numbers(QQ))
        reg = regular_module(dq)
        parts = decompose(reg)
        assert [(p.dim, mult) for p, mult, _ in parts] == [(2, 1)]

    def test_direct_sum_injections_and_projections(self, a2):
        P = projectives_of(a2)
        whole, injs, projs = direct_sum([P["e1"], P["e2"]])
        assert whole.dim == 3
        for inj, proj, part in zip(injs, projs, [P["e1"], P["e2"]]):
            assert proj.compose(inj).matrix == Matrix.identity(F2, part.dim)

    def test_empty_direct_sum_needs_algebra(self, a2):
        with pytest.raises(ValidationError):
            direct_sum([])
        z, injs, projs = direct_sum([], algebra=a2)
        assert z.dim == 0 and injs == [] and projs == []


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


def _unitriangular(d, f, rng):
    """Upper unitriangular d x d matrix with random entries above the diagonal."""
    rows = [[f.one() if i == j else f.coerce(rng.randrange(3)) if j > i else f.zero() for j in range(d)] for i in range(d)]
    return Matrix(f, rows, d, d)


def _conjugate(mod, t):
    """The copy of ``mod`` in the basis given by the columns of t^-1."""
    tinv = invert(t)
    return Module(mod.algebra, mod.dim, {lbl: t.mul(a).mul(tinv) for lbl, a in mod.action.items()})


def _assert_witness(x, y, wit):
    """``wit`` re-validates as a module map x -> y and is invertible."""
    ModuleMap(x, y, wit.matrix)
    assert invert(wit.matrix) is not None


def _indecomposables(alg):
    """Indecomposables of dimension <= 3: enumerated over a finite field;
    over Q the simples and the non-simple projectives, which are all of them
    for the a2 and a3rel quivers."""
    if alg.field.kind == "prime":
        return enumerate_indecomposables(alg, 3)
    simples = [simple_module(alg, lbl) for lbl, _ in alg.idempotents]
    return simples + [p for p, _ in indecomposable_projectives(alg) if p.dim > 1]


def _reference_is_isomorphic(m, n):
    """Exhaustive reference: some combination of the Hom basis is invertible.

    Coefficients run over all of F_p, or over the grid {0..dim}^h over Q: the
    determinant of Σ x_t f_t has degree <= dim in each x_t, so it vanishes on
    the whole grid only when it vanishes identically."""
    if m.dim != n.dim or m.dimension_vector() != n.dimension_vector():
        return False
    f = m.algebra.field
    basis = hom_space(m, n)
    values = range(f.p) if f.kind == "prime" else range(m.dim + 1)
    for coeff in itertools.product(values, repeat=len(basis)):
        mat = Matrix.zeros(f, n.dim, m.dim)
        for c, b in zip(coeff, basis):
            mat = mat + b.matrix.scale(f.coerce(c))
        if invert(mat) is not None:
            return True
    return False


class TestIsomorphism:
    def test_distinct_simples_are_not_isomorphic(self, a2):
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        assert is_isomorphic(S1, S2) is None

    def test_projective_vs_sum_of_simples(self, a2):
        # same dimension vector, different module structure
        P = projectives_of(a2)
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        sum12, _, _ = direct_sum([S1, S2])
        assert P["e1"].dimension_vector() == sum12.dimension_vector()
        assert is_isomorphic(P["e1"], sum12) is None

    def test_witness_is_a_validated_isomorphism(self, dual):
        reg = regular_module(dual)
        # conjugated copy of the regular module
        T = Matrix.from_rows(F2, [[1, 1], [0, 1]])
        Tinv = Matrix.from_rows(F2, [[1, 1], [0, 1]])
        twisted = Module(dual, 2, {lbl: T.mul(reg.action[lbl]).mul(Tinv) for lbl in dual.labels})
        wit = is_isomorphic(reg, twisted)
        assert wit is not None
        # re-validate explicitly
        ModuleMap(reg, twisted, wit.matrix)
        assert wit.is_isomorphism()

    def test_zero_modules_are_isomorphic(self, a2):
        assert is_isomorphic(zero_module(a2), zero_module(a2)) is not None

    def test_a_module_is_isomorphic_to_itself_with_nothing_solved(self, dual, monkeypatch):
        solves = []
        solve = modules._hom_matrices
        monkeypatch.setattr(modules, "_hom_matrices", lambda m, n: solves.append((m, n)) or solve(m, n))
        reg = regular_module(dual)
        wit = is_isomorphic(reg, reg)
        assert solves == [] and wit.source is wit.target is reg
        assert wit.matrix == Matrix.identity(F2, reg.dim)
        # Hom(reg, reg) had not been solved: the next query solves it
        hom_space(reg, reg)
        assert solves == [(reg, reg)]

    @pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
    def test_decisions_match_the_exhaustive_reference(self, field):
        rng = random.Random(2024)
        outcomes = set()
        # End of the dual numbers' regular module is not spanned by invertibles
        for quiver in (quiver_a2, quiver_a3_rel, quiver_dual_numbers):
            alg = compile_quiver_algebra(quiver(field))
            pool = _indecomposables(alg)
            sums = [direct_sum(list(pair), algebra=alg)[0] for pair in itertools.combinations_with_replacement(pool, 2)]
            # each module again in a random unimodular basis
            copies = [
                _conjugate(mod, _unitriangular(mod.dim, field, rng).transpose().mul(_unitriangular(mod.dim, field, rng)))
                for mod in pool + sums
            ]
            indecs = pool + copies[: len(pool)]
            decided = {}
            for x, y in itertools.product(pool + sums + copies, repeat=2):
                decided[id(x), id(y)] = expected = _reference_is_isomorphic(x, y)
                outcomes.add(expected)
                wit = is_isomorphic(x, y)
                assert (wit is not None) == expected
                if wit is not None:
                    _assert_witness(x, y, wit)
            for x, y in itertools.product(indecs, repeat=2):
                wit = indecomposable_iso(x, y)
                assert (wit is not None) == decided[id(x), id(y)]
                if wit is not None:
                    _assert_witness(x, y, wit)
        assert outcomes == {True, False}

    def test_large_hom_space_gets_a_witness(self, a2):
        # End(S1^4 ⊕ S2) has dimension 17: 2^17 coefficient combinations
        S1, S2 = simple_module(a2, "e1"), simple_module(a2, "e2")
        m, _, _ = direct_sum([S1] * 4 + [S2], algebra=a2)
        assert hom_dim(m, m) == 17
        copy = _conjugate(m, _unitriangular(m.dim, F2, random.Random(7)))
        _assert_witness(m, copy, is_isomorphic(m, copy))

    def test_equal_dimension_vectors_different_summands(self, a2):
        # (5, 1) both times, Hom dimension 21, but S1 occurs 5 and 4 times
        S1, S2, P1 = simple_module(a2, "e1"), simple_module(a2, "e2"), projectives_of(a2)["e1"]
        m, _, _ = direct_sum([S1] * 5 + [S2], algebra=a2)
        n, _, _ = direct_sum([S1] * 4 + [P1], algebra=a2)
        assert m.dimension_vector() == n.dimension_vector()
        assert hom_dim(m, n) == 21
        assert is_isomorphic(m, n) is None
        # (3, 3) both times, and the same summand classes in other multiplicities
        m, _, _ = direct_sum([S1, S1, S2, S2, P1], algebra=a2)
        n, _, _ = direct_sum([S1, S2, P1, P1], algebra=a2)
        assert m.dimension_vector() == n.dimension_vector()
        assert is_isomorphic(m, n) is None

    def test_small_end_rings_need_no_sympy(self, monkeypatch):
        # a blocked import raises ImportError, so the factor-driven pass must
        # stay unreached while every End ring fits the exhaustive scan
        monkeypatch.setitem(sys.modules, "sympy", None)
        for quiver in (quiver_a2, quiver_a3_rel):
            alg = compile_quiver_algebra(quiver())
            pool = enumerate_indecomposables(alg, 3)
            # each module with the indices of its summands in the pool
            items = [(mod, (i,)) for i, mod in enumerate(pool)] + [
                (direct_sum([pool[i], pool[j]], algebra=alg)[0], (i, j))
                for i, j in itertools.combinations_with_replacement(range(len(pool)), 2)
            ]
            for mod, parts in items:
                assert sum(mult for _, mult, _ in decompose(mod)) == len(parts)
            # Krull–Schmidt: isomorphic exactly when the summands agree
            for (x, xs), (y, ys) in itertools.product(items, repeat=2):
                assert (is_isomorphic(x, y) is not None) == (xs == ys)

    def test_suites_match_golden_without_sympy(self):
        # a fresh interpreter, so nothing is memoized, in which every
        # `import sympy` fails: End rings too large to scan are split too
        script = (
            "import json, sys\n"
            "sys.modules['sympy'] = None\n"
            "from silting_forge.io import dump_json\n"
            "from silting_forge.suites import run_suite\n"
            "reports = run_suite('all')['suites']\n"
            "print(json.dumps({name: dump_json(report) for name, report in reports.items()}))\n"
        )
        assert _run_reporting(script) == _golden_suites()

    def test_suite_reports_do_not_depend_on_the_order_they_run_in(self):
        # A suite reads the memos (Hom tables, End rings, GP classifications)
        # that the suites before it filled; the benchmark shuffles the order.
        script = (
            "import json\n"
            "from silting_forge.io import dump_json\n"
            "from silting_forge.suites import run_suite\n"
            "names = ('gluing', 'tensor', 'idempotent')\n"
            "print(json.dumps({name: dump_json(run_suite(name)) for name in names}))\n"
        )
        assert _run_reporting(script) == _golden_suites()


_ROOT = Path(__file__).resolve().parents[1]


def _run_reporting(script: str) -> dict:
    """The JSON ``script`` prints, run in a fresh interpreter over ``src``."""
    path = os.pathsep.join(filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _golden_suites() -> dict:
    return {
        name: (_ROOT / "tests" / "golden" / f"suite_{name}.json").read_text(encoding="utf-8")
        for name in ("idempotent", "tensor", "gluing")
    }


# ---------------------------------------------------------------------------
# Projectives, covers, presentations
# ---------------------------------------------------------------------------


class TestProjectives:
    def test_arrow_quiver_projectives(self, a2):
        pairs = indecomposable_projectives(a2)
        assert [(p.dim, lbl) for p, lbl in pairs] == [(2, "e1"), (1, "e2")]
        for p, _ in pairs:
            assert is_projective(p)

    def test_dual_numbers_single_projective(self, dual):
        pairs = indecomposable_projectives(dual)
        assert [(p.dim, lbl) for p, lbl in pairs] == [(2, "ev")]

    def test_three_vertex_projective_dimensions(self, a3rel):
        pairs = indecomposable_projectives(a3rel)
        assert [(p.dim, lbl) for p, lbl in pairs] == [(2, "e1"), (2, "e2"), (1, "e3")]

    def test_simples_are_not_projective_when_radical_hits_them(self, a2, dual):
        assert not is_projective(simple_module(a2, "e1"))
        assert is_projective(simple_module(a2, "e2"))  # sink vertex
        assert not is_projective(simple_module(dual, "ev"))

    def test_minimal_presentation_of_source_simple(self, a2):
        S1 = simple_module(a2, "e1")
        pres = minimal_projective_presentation(S1)
        assert pres.kind == "projective"
        assert pres.map.target.dim == 2  # cover P(1)
        assert pres.map.source.dim == 1  # syzygy covered by P(2)
        assert pres.certificates["cover_vertices"] == ["e1"]
        assert pres.certificates["syzygy_vertices"] == ["e2"]
        assert pres.map.is_injective()

    def test_minimal_presentation_over_dual_numbers(self, dual):
        k = simple_module(dual, "ev")
        pres = minimal_projective_presentation(k)
        assert pres.map.source.dim == 2 and pres.map.target.dim == 2
        # the presenting map is multiplication by the loop: rank one, not injective
        assert rank(pres.map.matrix) == 1

    def test_presentation_of_projective_has_zero_relations(self, a2):
        P = projectives_of(a2)
        pres = minimal_projective_presentation(P["e1"])
        assert pres.map.source.dim == 0
        assert pres.cokernel is P["e1"]

    def test_presentation_exactness_is_enforced(self, a2):
        S1 = simple_module(a2, "e1")
        pres = minimal_projective_presentation(S1)
        assert pres.coker_map.matrix.mul(pres.map.matrix).is_zero()
        assert pres.coker_map.is_surjective()


# ---------------------------------------------------------------------------
# Ext groups
# ---------------------------------------------------------------------------


class TestExt:
    def test_first_ext_between_the_arrow_simples(self, a2):
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        assert ext_dim(S1, S2, 1) == 1
        assert ext_dim(S2, S1, 1) == 0

    def test_hereditary_algebra_has_no_second_ext(self, a2):
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        for i in (2, 3):
            for x in (S1, S2):
                for y in (S1, S2):
                    assert ext_dim(x, y, i) == 0

    def test_self_extensions_over_dual_numbers_never_vanish(self, dual):
        k = simple_module(dual, "ev")
        for i in range(1, 6):
            assert ext_dim(k, k, i) == 1

    def test_second_ext_detects_the_relation(self, a3rel):
        S1 = simple_module(a3rel, "e1")
        S2 = simple_module(a3rel, "e2")
        S3 = simple_module(a3rel, "e3")
        assert ext_dim(S1, S2, 1) == 1
        assert ext_dim(S1, S3, 1) == 0
        assert ext_dim(S1, S3, 2) == 1
        assert ext_dim(S1, S2, 2) == 0
        assert ext_dim(S1, S3, 3) == 0

    def test_ext_from_projectives_vanishes(self, a2, dual):
        for alg in (a2, dual):
            reg = regular_module(alg)
            for mod in enumerate_indecomposables(alg, 2):
                assert ext_dim(reg, mod, 1) == 0

    def test_ext_rejects_nonpositive_degree(self, a2):
        S1 = simple_module(a2, "e1")
        with pytest.raises(ValidationError):
            ext_dim(S1, S1, 0)

    def test_ext_into_projectives_needs_both_differentials(self, a2, a3rel):
        """Hand values from S1's minimal resolutions 0 -> P2 -> P1 and
        0 -> P3 -> P2 -> P1.  Into a projective the Hom differentials are
        nonzero: Ext^1(S1, P1) over a2 is 0 only because id_P1 ∘ d1 != 0
        (incoming), and Ext^1(S1, P2) over a3rel is 0 only because
        id_P2 ∘ d2 != 0 (outgoing)."""
        for alg, expected in (
            (a2, {("e1", 1): 0, ("e2", 1): 1, ("e1", 2): 0, ("e2", 2): 0}),
            (a3rel, {("e2", 1): 0, ("e3", 1): 0, ("e2", 2): 0, ("e3", 2): 1}),
        ):
            P = projectives_of(alg)
            S1 = simple_module(alg, "e1")
            assert {(v, i): ext_dim(S1, P[v], i) for v, i in expected} == expected

    def test_ext_beyond_the_length_bound_is_a_domain_error(self, dual):
        k = simple_module(dual, "ev")
        assert ext_dim(k, k, 3, bound=4) == 1
        with pytest.raises(DomainError, match="length bound 3"):
            ext_dim(k, k, 3, bound=3)


class TestResolution:
    def test_differentials_form_an_exact_complex(self, a3rel, dual):
        for m, length in ((simple_module(a3rel, "e1"), 4), (simple_module(dual, "ev"), 5)):
            steps = list(itertools.islice(resolution(m, lambda x: projective_cover(x)[1]), length))
            approx0, d0 = steps[0]
            assert d0 is approx0 and approx0.target is m and approx0.is_surjective()
            for (_, d), (_, d_next) in zip(steps, steps[1:]):
                assert d_next.target is d.source
                assert d.matrix.mul(d_next.matrix).is_zero()
                assert rank(d.matrix) + rank(d_next.matrix) == d.source.dim
            assert all(is_projective(approx.source) for approx, _ in steps)

    def test_next_syzygy_waits_for_the_next_step(self, a2):
        calls = []

        def cover(x):
            calls.append(x.dim)
            return projective_cover(x)[1]

        steps = resolution(simple_module(a2, "e1"), cover)
        next(steps)
        assert calls == [1]
        next(steps)
        assert calls == [1, 1]


# ---------------------------------------------------------------------------
# The translate
# ---------------------------------------------------------------------------


class TestTranslate:
    def test_translate_kills_exactly_the_projectives(self, a2, dual, a3rel):
        for alg in (a2, dual, a3rel):
            for mod in enumerate_indecomposables(alg, 2):
                translated = ar_translate(mod)
                if is_projective(mod):
                    assert translated.dim == 0
                else:
                    assert translated.dim > 0

    def test_translate_of_the_source_simple(self, a2):
        S1 = simple_module(a2, "e1")
        S2 = simple_module(a2, "e2")
        t = ar_translate(S1)
        assert t.dim == 1
        assert is_isomorphic(t, S2) is not None

    def test_translate_fixes_the_dual_numbers_simple(self, dual):
        k = simple_module(dual, "ev")
        t = ar_translate(k)
        assert is_isomorphic(t, k) is not None

    def test_translate_over_the_rationals(self):
        aq = compile_quiver_algebra(quiver_a2(QQ))
        S1 = simple_module(aq, "e1")
        S2 = simple_module(aq, "e2")
        assert is_isomorphic(ar_translate(S1), S2) is not None


def _with_sums(alg, bound, sum_bound):
    """The indecomposables of dimension <= ``bound`` and the sums of two of
    dimension <= ``sum_bound`` each."""
    pool = enumerate_indecomposables(alg, bound)
    small = [m for m in pool if m.dim <= sum_bound]
    return pool + [direct_sum([x, y], algebra=alg)[0] for x, y in itertools.combinations_with_replacement(small, 2)]


def _rational_probes(quiver):
    alg = compile_quiver_algebra(quiver(QQ))
    simples = [simple_module(alg, lbl) for lbl, _ in alg.idempotents]
    return simples + [p for p, _ in indecomposable_projectives(alg)] + random_probe_modules(alg, 4, seed=1)


_TRANSLATE_POOLS = {
    **{name: lambda name=name: _with_sums(corpus_load(name), 3, 2) for name in ("a2", "a2xa2", "a3rel", "dualnum", "kxk")},
    "a2-F3": lambda: _with_sums(compile_quiver_algebra(quiver_a2(F3)), 3, 2),
    "a3rel-F3": lambda: _with_sums(compile_quiver_algebra(quiver_a3_rel(F3)), 3, 1),
    "a2-Q": lambda: _rational_probes(quiver_a2),
    "a3rel-Q": lambda: _rational_probes(quiver_a3_rel),
}


@pytest.mark.parametrize("name", list(_TRANSLATE_POOLS))
def test_hom_into_the_translate_is_the_corank_at_the_minimal_presentation(name):
    # Adachi-Iyama-Reiten, Prop. 2.4: for a minimal projective presentation
    # sigma of M, Hom(P_0, N) -> Hom(P_1, N) -> D Hom(N, tau M) -> 0 is exact.
    # ar_translate, built as D Tr over the opposite algebra, is the reference.
    pool = _TRANSLATE_POOLS[name]()
    for m in pool:
        sigma = minimal_projective_presentation(m).map
        tau = ar_translate(m)
        assert [precompose_corank(sigma, n) for n in pool] == [hom_dim(n, tau) for n in pool]


def test_precompose_corank_rejects_composites_outside_the_hom_space(a2):
    # S2 -> A sending the generator to the sum of the basis is no homomorphism,
    # and its composites span more than Hom(S2, A).
    s2, reg = simple_module(a2, "e2"), regular_module(a2)
    phi = ModuleMap(s2, reg, Matrix(a2.field, [[1]] * reg.dim, reg.dim, 1), check=False)
    with pytest.raises(ValidationError):
        precompose_corank(phi, reg)


# ---------------------------------------------------------------------------
# Tensor functors
# ---------------------------------------------------------------------------


class TestTensor:
    def test_regular_bimodule_tensor_is_identity_on_dimensions(self, dual):
        B = Bimodule.regular(dual)
        reg = regular_module(dual)
        k = simple_module(dual, "ev")
        t_reg, info = tensor_over_algebra(B, reg)
        t_k, _ = tensor_over_algebra(B, k)
        assert t_reg.dim == 2 and t_k.dim == 1
        assert info["projection"].nrows == t_reg.dim
        assert is_isomorphic(t_reg, reg) is not None
        assert is_isomorphic(t_k, k) is not None

    def test_tensor_rejects_module_over_wrong_algebra(self, a2, dual):
        B = Bimodule.regular(dual)
        with pytest.raises(ValidationError):
            tensor_over_algebra(B, regular_module(a2))

    def test_field_tensor_dimensions_multiply(self, a2):
        T, _ = derive_algebra(a2, "tensor", b=a2)
        S1 = simple_module(a2, "e1")
        P = projectives_of(a2)
        assert tensor_over_field(S1, S1, T).dim == 1
        assert tensor_over_field(P["e1"], P["e1"], T).dim == 4

    def test_field_tensor_of_projectives_is_projective(self, a2):
        T, _ = derive_algebra(a2, "tensor", b=a2)
        for pa, _ in indecomposable_projectives(a2):
            for pb, _ in indecomposable_projectives(a2):
                assert is_projective(tensor_over_field(pa, pb, T))

    def test_field_tensor_matches_derived_algebra_regular(self, a2):
        T, _ = derive_algebra(a2, "tensor", b=a2)
        reg2 = tensor_over_field(regular_module(a2), regular_module(a2), T)
        assert is_isomorphic(reg2, regular_module(T)) is not None


# ---------------------------------------------------------------------------
# Membership primitives against the modules they avoid building
# ---------------------------------------------------------------------------


def _membership_algebra(name):
    if name == "a3rel-F3":
        return compile_quiver_algebra(quiver_a3_rel(F3))
    return corpus_load(name)


def _evaluation_map(x, u):
    """The evaluation map x^(dim Hom(x, u)) -> u, built as a checked module map."""
    basis = hom_space(x, u)
    source = direct_sum([x] * len(basis), algebra=x.algebra)[0]
    mat = Matrix.hstack([h.matrix for h in basis]) if basis else Matrix.zeros(x.algebra.field, u.dim, 0)
    return ModuleMap(source, u, mat)


@pytest.mark.parametrize("name", ["a2", "a3rel", "dualnum", "kxk", "a3rel-F3"])
def test_membership_primitives_match_built_references(name):
    from silting_forge.gorenstein import gen_g_contains
    from silting_forge.silting import gen_contains

    alg = _membership_algebra(name)
    f = alg.field
    gp = gp_classification(alg)
    pool = enumerate_indecomposables(alg, 3)
    sources = pool + [direct_sum([x, y], algebra=alg)[0] for x, y in itertools.combinations(pool, 2)]
    reg = regular_module(alg)
    assert all(evaluation_image(reg, u).nrows == u.dim for u in pool)
    seen = set()
    maps = [minimal_projective_presentation(m).map for m in pool]
    for x in sources:
        for u in pool:
            ev = _evaluation_map(x, u)
            maps.append(ev)
            # every map x -> u factors through the evaluation map, so its
            # columns lie in the evaluation image
            image = evaluation_image(x, u)
            assert image.nrows == rank(ev.matrix)
            for h in _all_maps(x, u):
                assert all(not any(reduce_mod_row_space(list(col), image)) for col in zip(*h.matrix.data))
            onto = ev.is_surjective()
            assert gen_contains(x, u) == onto
            relative = onto and all(
                _onto_by_span(
                    [ev.matrix.mul(h.matrix) for h in hom_space(g, ev.source)],
                    hom_space(g, u), f, u.dim * g.dim,
                )
                for g in gp.modules
            )
            assert gen_g_contains(x, u, gp) == relative
            seen.add(("gen", onto, relative))
    for phi in maps:
        for u in pool:
            onto = _onto_by_span(
                [h.matrix.mul(phi.matrix) for h in hom_space(phi.target, u)],
                hom_space(phi.source, u), f, u.dim * phi.source.dim,
            )
            assert (precompose_corank(phi, u) == 0) == onto
            seen.add(("pre", onto))
    assert {("pre", True), ("pre", False)} <= seen
    assert {key[:2] for key in seen if key[0] == "gen"} == {("gen", True), ("gen", False)}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_arrow_quiver_has_three_small_indecomposables(self, a2):
        found = enumerate_indecomposables(a2, 2)
        assert len(found) == 3
        vectors = sorted(tuple(sorted(m.dimension_vector().items())) for m in found)
        assert vectors == [
            (("e1", 0), ("e2", 1)),
            (("e1", 1), ("e2", 0)),
            (("e1", 1), ("e2", 1)),
        ]
        P = projectives_of(a2)
        big = [m for m in found if m.dim == 2][0]
        assert is_isomorphic(big, P["e1"]) is not None

    def test_dual_numbers_has_two_small_indecomposables(self, dual):
        found = enumerate_indecomposables(dual, 2)
        assert [m.dim for m in found] == [1, 2]
        assert is_isomorphic(found[1], regular_module(dual)) is not None

    def test_bound_zero_is_empty(self, a2):
        assert enumerate_indecomposables(a2, 0) == []

    def test_enumeration_is_deterministic(self):
        # two separately compiled algebras: the second enumeration is computed
        # afresh rather than read from the first one's memo
        first, second = (
            [m.encode() for m in enumerate_indecomposables(compile_quiver_algebra(quiver_a2()), 2)]
            for _ in range(2)
        )
        assert first == second

    def test_enumeration_requires_finite_field(self):
        aq = compile_quiver_algebra(quiver_a2(QQ))
        with pytest.raises(DomainError):
            enumerate_indecomposables(aq, 2)

    def test_two_vertex_semisimple_has_only_simples(self):
        alg = compile_quiver_algebra(quiver_kxk())
        found = enumerate_indecomposables(alg, 3)
        assert len(found) == 2
        assert all(m.dim == 1 for m in found)

    def test_larger_bound_over_odd_characteristic(self):
        alg = compile_quiver_algebra(quiver_a2(F3))
        found = enumerate_indecomposables(alg, 2)
        assert len(found) == 3


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_quotient_by_radical_multiples_is_semisimple_quotient(data):
    alg = compile_quiver_algebra(quiver_a3_rel())
    pool = enumerate_indecomposables(alg, 2)
    mod = data.draw(st.sampled_from(pool))
    quo, proj = quotient_module(mod, mod.radical_columns())
    # the quotient is killed by the radical
    assert quo.radical_columns().ncols == 0
    assert proj.is_surjective()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_hom_combinations_satisfy_rank_nullity(data):
    alg = compile_quiver_algebra(quiver_a3_rel())
    pool = enumerate_indecomposables(alg, 2)
    src = data.draw(st.sampled_from(pool))
    tgt = data.draw(st.sampled_from(pool))
    basis = hom_space(src, tgt)
    if not basis:
        return
    coeffs = data.draw(st.lists(st.integers(0, 1), min_size=len(basis), max_size=len(basis)))
    mat = Matrix.zeros(F2, tgt.dim, src.dim)
    for c, b in zip(coeffs, basis):
        if c:
            mat = mat + b.matrix
    combined = ModuleMap(src, tgt, mat)
    img = image(combined)[0]
    assert kernel(combined)[0].dim + img.dim == src.dim
    assert img.dim + cokernel(combined)[0].dim == tgt.dim


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_decompose_direct_sums_recovers_the_parts(data):
    alg = compile_quiver_algebra(quiver_a2())
    pool = enumerate_indecomposables(alg, 2)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    big, _, _ = direct_sum(picks, algebra=alg)
    parts = decompose(big)
    assert sum(p.dim * mult for p, mult, _ in parts) == big.dim
    assert sum(mult for _, mult, _ in parts) == len(picks)


@pytest.mark.parametrize("corpus_id", ["a2", "a3rel", "a2xa2", "dualnum", "kxk"])
def test_decompose_leaves_nothing_for_the_cyclic_collector(corpus_id):
    # Every object one decompose call allocates is freed by reference
    # counting: with the collector off, a collection afterwards finds nothing.
    # Nor does one after the module is dropped: the decomposition memoized on
    # it refers to nothing that refers back to it.
    alg = corpus_load(corpus_id)
    reg = regular_module(alg)
    decompose(reg)  # warms the algebra's memo
    # Modules are interned by content: a rebuilt reg would be reg itself,
    # decomposed already, so the copy enters in a permuted basis.
    fresh = Module(alg, reg.dim, permuted_actions(reg))
    assert not fresh._memo
    gc.collect()
    gc.disable()
    try:
        parts = decompose(fresh)
        unreachable = gc.collect()
        summed = sum(p.dim * mult for p, mult, _ in parts)
        del parts, fresh
        dropped = gc.collect()
    finally:
        gc.enable()
    assert summed == reg.dim
    assert unreachable == 0
    assert dropped == 0


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_translate_preserves_indecomposability_and_distinctness(data):
    alg = compile_quiver_algebra(quiver_a3_rel())
    pool = enumerate_indecomposables(alg, 2)
    mod = data.draw(st.sampled_from(pool))
    other = data.draw(st.sampled_from(pool))
    t_mod, t_other = ar_translate(mod), ar_translate(other)
    if t_mod.dim > 0:
        parts = decompose(t_mod)
        assert len(parts) == 1 and parts[0][1] == 1
    if t_mod.dim > 0 and t_other.dim > 0 and is_isomorphic(mod, other) is None:
        assert is_isomorphic(t_mod, t_other) is None


def test_projective_dimension_values(a2, dual):
    from silting_forge.modules import global_dimension, projective_dimension

    assert projective_dimension(simple_module(a2, "e1")) == 1
    assert projective_dimension(simple_module(a2, "e2")) == 0
    assert projective_dimension(regular_module(a2)) == 0
    assert global_dimension(a2) == 1
    # Over the dual numbers the simple has no finite resolution.
    assert projective_dimension(simple_module(dual, "ev"), bound=6) is None
    assert global_dimension(dual, 6) is None
    assert projective_dimension(zero_module(a2)) == 0


def _all_maps(m, n):
    """Every element of Hom(m, n) over a prime field, zero map included."""
    f = m.algebra.field
    basis = hom_space(m, n)
    out = []
    for coeffs in itertools.product(list(f.elements()), repeat=len(basis)):
        mat = Matrix.zeros(f, n.dim, m.dim)
        for c, h in zip(coeffs, basis):
            mat = mat + h.matrix.scale(c)
        out.append(ModuleMap(m, n, mat))
    return out


def _onto_by_span(composites, basis, f, width):
    """Reference criterion: every basis map reduces to zero modulo the span
    of the composites."""
    flat = lambda mat: [x for row in mat.data for x in row]
    span = row_space_basis([flat(c) for c in composites], f, width)
    return all(not any(reduce_mod_row_space(flat(b.matrix), span)) for b in basis)


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_induced_hom_ranks_match_span_criterion(field):
    alg = compile_quiver_algebra(quiver_a3_rel(field))
    pool = enumerate_indecomposables(alg, 2)
    maps = [phi for m in pool for n in pool for phi in _all_maps(m, n)]
    seen = set()
    for phi in maps:
        for u in pool:
            onto = _onto_by_span(
                [h.matrix.mul(phi.matrix) for h in hom_space(phi.target, u)],
                hom_space(phi.source, u), field, u.dim * phi.source.dim,
            )
            assert (precompose_corank(phi, u) == 0) == onto
            seen.add(("pre", onto))
            onto = _onto_by_span(
                [phi.matrix.mul(h.matrix) for h in hom_space(u, phi.source)],
                hom_space(u, phi.target), field, u.dim * phi.target.dim,
            )
            assert (postcompose_rank(u, [(phi.source, phi.matrix)]) == hom_dim(u, phi.target)) == onto
            seen.add(("post", onto))
    assert seen == {("pre", True), ("pre", False), ("post", True), ("post", False)}


def test_hom_coordinates_recover_combinations_and_reject_outsiders():
    alg = compile_quiver_algebra(quiver_a3_rel(F3))
    reg = regular_module(alg)
    basis = hom_space(reg, reg)
    coeffs = [[F3.coerce(i + 2 * j) for j in range(3)] for i in range(len(basis))]
    mats = []
    for j in range(3):
        mat = Matrix.zeros(F3, reg.dim, reg.dim)
        for i, h in enumerate(basis):
            mat = mat + h.matrix.scale(coeffs[i][j])
        mats.append(mat)
    assert hom_coordinates(basis, mats) == Matrix(F3, coeffs, len(basis), 3)
    # a matrix unit does not commute with the action, so it is no endomorphism
    unit = Matrix.zeros(F3, reg.dim, reg.dim)
    unit.data[0][reg.dim - 1] = F3.one()
    with pytest.raises(ValidationError):
        hom_coordinates(basis, mats + [unit])
    # an empty basis, such as that of Hom(S1, S3), spans only zero
    assert hom_coordinates([], [Matrix.zeros(F3, 1, 1)]) == Matrix.zeros(F3, 0, 1)
    with pytest.raises(ValidationError):
        hom_coordinates([], [Matrix.identity(F3, 1)])


# ---------------------------------------------------------------------------
# The batched Hom solve and the component rank against their references
# ---------------------------------------------------------------------------


def _reference_hom_space(m, n):
    """Hom(m, n) as first written: the commutator system assembled position
    by position, each solution taken back to the given bases with its own two
    products and checked label by label."""
    alg, f = m.algebra, m.algebra.field
    if m.dim == 0 or n.dim == 0:
        return []
    am, an = m.adapted(), n.adapted()
    positions = [
        (r, c) for lbl, _ in alg.idempotents for r in range(*an.blocks[lbl]) for c in range(*am.blocks[lbl])
    ]
    if not positions:
        return []
    rows = []
    for name, _vec, _blk in alg.generating_set().radical_seeds():
        gm, gn = am.action[name], an.action[name]
        for a_ in range(n.dim):
            for b_ in range(m.dim):
                row = [f.zero()] * len(positions)
                for t, (rr, cc) in enumerate(positions):
                    coeff = f.zero()
                    if rr == a_ and gm.data[cc][b_] != 0:
                        coeff = f.add(coeff, gm.data[cc][b_])
                    if cc == b_ and gn.data[a_][rr] != 0:
                        coeff = f.sub(coeff, gn.data[a_][rr])
                    row[t] = coeff
                if any(row):
                    rows.append(row)
    width = len(positions)
    if rows:
        nullbasis = nullspace(Matrix(f, rows, len(rows), width)).transpose().data
    else:
        nullbasis = [[f.one() if i == t else f.zero() for i in range(width)] for t in range(width)]
    out = []
    for vec in nullbasis:
        h = Matrix.zeros(f, n.dim, m.dim)
        for t, (rr, cc) in enumerate(positions):
            h.data[rr][cc] = vec[t]
        full = an.from_adapted.mul(h).mul(am.to_adapted)
        for lbl in alg.labels:
            assert full.mul(m.action[lbl]) == n.action[lbl].mul(full)
        out.append(ModuleMap(m, n, full, check=False))
    return out


def _unimodular(d, f, rng):
    return _unitriangular(d, f, rng).transpose().mul(_unitriangular(d, f, rng))


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_hom_space_matches_the_per_position_reference(field):
    rng = random.Random(31)
    a2 = compile_quiver_algebra(quiver_a2(field))
    algebras = [
        a2,
        compile_quiver_algebra(quiver_a3_rel(field)),
        compile_quiver_algebra(quiver_dual_numbers(field)),
        derive_algebra(a2, "tensor", b=a2)[0],
    ]
    for alg in algebras:
        indecs = [mod for mod in _indecomposables(alg) if mod.dim <= 3]
        probes = [_conjugate(p, _unimodular(p.dim, field, rng)) for p in random_probe_modules(alg, 3, seed=5)]
        pool = [zero_module(alg)] + indecs + probes
        nonzero = 0
        for x, y in itertools.product(pool, repeat=2):
            got = [h.matrix for h in hom_space(x, y)]
            assert got == [h.matrix for h in _reference_hom_space(x, y)]
            nonzero += bool(got)
        assert nonzero > len(pool)


def test_a_repeated_hom_space_reads_the_first_solve(monkeypatch, a3rel):
    solves = []
    solve = modules._hom_matrices
    monkeypatch.setattr(modules, "_hom_matrices", lambda m, n: solves.append((m, n)) or solve(m, n))
    m = regular_module(a3rel)
    n = Module(a3rel, m.dim, permuted_actions(m))
    first = hom_space(m, n)
    again = hom_space(m, n)
    assert first and [h.matrix for h in again] == [h.matrix for h in first]
    assert all(h.source is m and h.target is n for h in again)
    assert all(h.matrix is not g.matrix for h, g in zip(again, first))  # fresh, not shared
    assert hom_dim(m, n) == len(first)
    assert solves == [(m, n)]


def test_the_hom_table_keeps_no_target_alive(a3rel):
    m = regular_module(a3rel)
    n = Module(a3rel, m.dim, permuted_actions(m))
    assert len(hom_space(m, n)) == 5
    table = m._memo[modules._hom_entry]
    assert list(table.keys()) == [n]
    gone = weakref.ref(n)
    del n
    gc.collect()
    assert gone() is None
    assert len(table) == 0


def test_hom_dim_is_the_length_of_the_hom_basis(a3rel):
    pool = [zero_module(a3rel)] + _indecomposables(a3rel)
    for x, y in itertools.product(pool, repeat=2):
        assert hom_dim(x, y) == len(hom_space(x, y)) == len(modules._hom_matrices(x, y))


def _first_failing_label(m, n, mats):
    """The label a map-by-map, label-by-label check names first, or None."""
    for mat in mats:
        for lbl in m.algebra.labels:
            if mat.mul(m.action[lbl]) != n.action[lbl].mul(mat):
                return lbl
    return None


def _assert_check_agrees(m, n, mats):
    """The batched check passes or raises exactly as the reference does."""
    expected = _first_failing_label(m, n, mats)
    if expected is None:
        _check_commutes(m, n, mats)
        return False
    with pytest.raises(ValidationError) as err:
        _check_commutes(m, n, mats)
    assert str(err.value) == f"map does not commute with the action of {expected!r}"
    return True


class TestBatchedCommuteCheck:
    @pytest.fixture
    def endos(self):
        alg = compile_quiver_algebra(quiver_a3_rel(F3))
        reg = regular_module(alg)
        return reg, [h.matrix for h in hom_space(reg, reg)]

    def test_every_hom_basis_passes(self, endos):
        reg, mats = endos
        assert len(mats) == 5
        assert not _assert_check_agrees(reg, reg, mats)

    def test_one_flipped_entry_is_caught_in_every_map(self, endos):
        reg, mats = endos
        caught = set()
        for j, mat in enumerate(mats):
            for r in range(reg.dim):
                for c in range(reg.dim):
                    bad = mat.copy()
                    bad.data[r][c] = F3.add(bad.data[r][c], F3.one())
                    if _assert_check_agrees(reg, reg, mats[:j] + [bad] + mats[j + 1 :]):
                        caught.add(j)
        assert caught == set(range(len(mats)))

    def test_a_wrong_block_is_caught_in_every_position(self, endos):
        reg, mats = endos
        rng = random.Random(4)
        for j in range(len(mats)):
            wrong = Matrix(F3, [[rng.randrange(3) for _ in range(reg.dim)] for _ in range(reg.dim)])
            assert _assert_check_agrees(reg, reg, mats[:j] + [wrong] + mats[j + 1 :])

    def test_a_map_failing_only_the_last_label_is_caught(self, a2):
        last = a2.labels[-1]
        pool = [zero_module(a2)] + enumerate_indecomposables(a2, 3)
        found = 0
        for x, y in itertools.product(pool, repeat=2):
            if not 0 < x.dim * y.dim <= 6:
                continue
            for entries in itertools.product((0, 1), repeat=x.dim * y.dim):
                mat = Matrix(F2, [entries[i * x.dim : (i + 1) * x.dim] for i in range(y.dim)], y.dim, x.dim)
                failing = [lbl for lbl in a2.labels if mat.mul(x.action[lbl]) != y.action[lbl].mul(mat)]
                if failing != [last]:
                    continue
                found += 1
                valid = [h.matrix for h in hom_space(x, y)]
                for mats in ([mat], valid + [mat], [mat] + valid):
                    assert _assert_check_agrees(x, y, mats)
                with pytest.raises(ValidationError, match=f"action of {last!r}"):
                    ModuleMap(x, y, mat)
        assert found


def _random_hom(x, y, rng):
    """A random element of Hom(x, y), as a matrix."""
    f = x.algebra.field
    mat = Matrix.zeros(f, y.dim, x.dim)
    for h in hom_space(x, y):
        mat = mat + h.matrix.scale(rng.randrange(f.p))
    return mat


def _rank_through_direct_sum(g, y, components):
    """Rank of Hom(g, phi) for phi assembled on the direct sum of the sources."""
    src, _, _ = direct_sum([x for x, _ in components], algebra=g.algebra)
    f = g.algebra.field
    mat = Matrix.hstack([block for _, block in components]) if components else Matrix.zeros(f, y.dim, 0)
    phi = ModuleMap(src, y, mat)
    rows = [[v for row in phi.matrix.mul(h.matrix).data for v in row] for h in hom_space(g, src)]
    return row_space_basis(rows, f, g.dim * y.dim).nrows


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_component_rank_matches_the_assembled_direct_sum(field):
    rng = random.Random(17)
    cases = []  # (sources X_k, targets Y and probes g)
    for quiver in (quiver_a2, quiver_a3_rel):
        alg = compile_quiver_algebra(quiver(field))
        pool = enumerate_indecomposables(alg, 3)
        cases.append((pool, pool + random_probe_modules(alg, 2, seed=3)))
    if field == F2:
        # the GP lists of the Gorenstein corpus algebras, as the relative
        # approximations use them
        for path in sorted(CORPUS_DIR.glob("*.json")):
            entry = corpus_load(path.stem)
            alg = getattr(entry, "gamma", entry)
            if gorenstein_report(alg, bound=4).verdict == "gorenstein":
                gp = gp_classification(entry, 3).modules
                cases.append((gp, gp + random_probe_modules(alg, 2, seed=3)))
    ranks = set()
    for sources, targets in cases:
        for y in targets:
            for _ in range(3):
                xs = [rng.choice(sources) for _ in range(rng.randrange(4))]
                components = [(x, _random_hom(x, y, rng)) for x in xs]
                for g in targets:
                    got = postcompose_rank(g, components)
                    assert got == _rank_through_direct_sum(g, y, components)
                    ranks.add(got)
    assert len(ranks) > 2


def test_hom_defaults_are_looked_up_when_called(monkeypatch, a2):
    """``postcompose_rank`` and ``gorenstein._g_epic`` read
    ``modules.hom_space`` when called, so a wrapper installed after import
    (as a tracer installs one) sees every Hom basis they ask for, whether
    it is solved or read from the memo."""
    from types import SimpleNamespace

    from silting_forge import gorenstein

    calls = []
    original = modules.hom_space

    def counting(g, x):
        calls.append((g, x))
        return original(g, x)

    monkeypatch.setattr(modules, "hom_space", counting)
    m = regular_module(a2)
    need = len(original(m, m))
    identity = [(m, Matrix.identity(a2.field, m.dim))]
    assert postcompose_rank(m, identity) == need
    assert calls == [(m, m)]
    assert gorenstein._g_epic(identity, SimpleNamespace(modules=[m]), [need])
    assert calls == [(m, m), (m, m)]


# ---------------------------------------------------------------------------
# Hom over recorded direct sums against answers solved on the whole sum
# ---------------------------------------------------------------------------


def _flat_rows(mat):
    return [x for row in mat.data for x in row]


def _combined(x, y, rng):
    """A random element of Hom(x, y), as a matrix, over any field."""
    f = x.algebra.field
    mat = Matrix.zeros(f, y.dim, x.dim)
    for h in hom_space(x, y):
        mat = mat + h.matrix.scale(f.random(rng))
    return mat


def _whole_image(x, u):
    """The evaluation image read off ``hom_space(x, u)``, solved on x whole."""
    return row_space_basis([list(col) for h in hom_space(x, u) for col in zip(*h.matrix.data)], u.algebra.field, u.dim)


def _whole_corank(phi, u):
    rows = [_flat_rows(h.matrix.mul(phi.matrix)) for h in hom_space(phi.target, u)]
    return len(hom_space(phi.source, u)) - row_space_basis(rows, u.algebra.field, u.dim * phi.source.dim).nrows


def _whole_postcompose_rank(g, components):
    rows = [_flat_rows(block.mul(h.matrix)) for x, block in components for h in hom_space(g, x)]
    return row_space_basis(rows, g.algebra.field, len(rows[0]) if rows else 0).nrows


def _whole_gen_g_contains(t, m, gp):
    """Onto m, and each Hom(G, m) spanned by the maps t -> m after G -> t."""
    f = m.algebra.field
    if _whole_image(t, m).nrows != m.dim:
        return False
    basis = hom_space(t, m)
    return all(
        row_space_basis([_flat_rows(h.matrix.mul(k.matrix)) for h in basis for k in hom_space(g, t)], f, m.dim * g.dim).nrows
        == len(hom_space(g, m))
        for g in gp.modules
    )


def _recorded_sum_case(field, quiver):
    """An algebra, its indecomposables of dimension <= 2, and its GP list.
    Over Q the list is written down: the projectives of the algebras of
    finite global dimension, and every indecomposable of the self-injective
    dual numbers.  A quiver of None stands for a2 ⊗ a2, of global dimension
    2, whose list is written down over every field."""
    from silting_forge.gorenstein import GpClassification

    if quiver is None:
        a2 = compile_quiver_algebra(quiver_a2(field))
        alg = derive_algebra(a2, "tensor", b=a2)[0]
    else:
        alg = compile_quiver_algebra(quiver(field))
    pool = [m for m in _indecomposables(alg) if m.dim <= 2]
    if field.kind == "prime" and quiver is not None:
        return alg, pool, gp_classification(alg, 3)
    gp = pool if quiver is quiver_dual_numbers else [p for p, _ in indecomposable_projectives(alg)]
    return alg, pool, GpClassification(alg, 3, gp, True, gorenstein_report(alg), ("written down",))


def _recorded_tensor_products(alg, rng):
    """Tensor products over ``alg`` = a2 ⊗ a2 as :func:`tensor_over_field`
    records them: of two recorded a2-sums, of a sum and an indecomposable
    either way round, of two minimal presentation terms, and a sum of
    products, whose summands sit at scattered positions."""
    a2 = compile_quiver_algebra(quiver_a2(alg.field))
    pool = [m for m in _indecomposables(a2) if m.dim <= 2]
    a, b, c = (rng.choice(pool) for _ in range(3))
    ab, cb = direct_sum([a, b])[0], direct_sum([c, b])[0]
    p0s = [minimal_projective_presentation(m).map.target for m in (ab, c)]
    products = [
        tensor_over_field(ab, cb, alg),
        tensor_over_field(ab, c, alg),
        tensor_over_field(a, cb, alg),
        tensor_over_field(*p0s, alg),
    ]
    return products + [direct_sum([products[0], tensor_over_field(c, a, alg), products[2]])[0]]


def _recorded_sums(alg, parts, rng):
    """Sums as :func:`direct_sum` records them: a pair, a repeated summand,
    zero parts, and a sum of sums."""
    zero = zero_module(alg)
    a, b, c = (rng.choice(parts) for _ in range(3))
    pair = direct_sum([a, b], algebra=alg)[0]
    return [
        pair,
        direct_sum([a, a, b], algebra=alg)[0],
        direct_sum([zero, a, zero, c], algebra=alg)[0],
        direct_sum([pair, zero, direct_sum([c, b], algebra=alg)[0]], algebra=alg)[0],
    ]


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize(
    "quiver", [quiver_a2, quiver_a3_rel, quiver_dual_numbers, None], ids=["a2", "a3rel", "dual", "a2xa2"]
)
def test_hom_queries_on_recorded_sums_match_the_whole_sum(monkeypatch, field, quiver):
    from silting_forge.gorenstein import gen_g_contains

    rng = random.Random(29)
    alg, pool, gp = _recorded_sum_case(field, quiver)
    sums = _recorded_sums(alg, pool, rng) + _recorded_sums(alg, gp.modules, rng)
    sums += [minimal_projective_presentation(m).map.target for m in pool]
    if quiver is None:
        products = _recorded_tensor_products(alg, rng)
        assert all(len(modules.summands(t)) > 1 for t in products)
        sums += products
    everything = pool + sums
    phis = [minimal_projective_presentation(m).map for m in everything]
    phis += [ModuleMap(x, t, _combined(x, t, rng)) for t in sums for x in rng.sample(pool, 2)]
    components = [
        [(t, _combined(t, u, rng)) for t in (rng.choice(sums), rng.choice(sums + pool))]
        for u in everything
    ]
    assert sum(len(modules.summands(t)) > 1 for t in sums) >= 8
    solve = modules._hom_matrices

    def split(query, sides):
        """Run ``query`` with no recorded sum solved whole in the ``sides``
        of Hom (first argument "m", second "n") that it reads by summands.
        The queries run before the references, so that no whole-sum basis
        they could read instead is in the memo yet."""

        def checked(m, n):
            assert all(len(modules.summands(x)) == 1 for x, side in ((m, "m"), (n, "n")) if side in sides)
            return solve(m, n)

        monkeypatch.setattr(modules, "_hom_matrices", checked)
        return query()

    got = {
        "dim": split(lambda: [[hom_dim(x, y) for y in everything] for x in everything], "mn"),
        "image": split(lambda: [[evaluation_image(x, u) for u in everything] for x in sums], "m"),
        "corank": split(lambda: [[precompose_corank(phi, u) for u in everything] for phi in phis], "m"),
        "rank": split(lambda: [[postcompose_rank(g, comps) for g in gp.modules + sums[:3]] for comps in components], "n"),
        "gen_g": split(lambda: [[gen_g_contains(t, u, gp) for u in everything] for t in sums], "m"),
    }
    monkeypatch.setattr(modules, "_hom_matrices", solve)
    assert got == {
        "dim": [[len(hom_space(x, y)) for y in everything] for x in everything],
        "image": [[_whole_image(x, u) for u in everything] for x in sums],
        "corank": [[_whole_corank(phi, u) for u in everything] for phi in phis],
        "rank": [[_whole_postcompose_rank(g, comps) for g in gp.modules + sums[:3]] for comps in components],
        "gen_g": [[_whole_gen_g_contains(t, u, gp) for u in everything] for t in sums],
    }
    # both answers of each yes/no question occur
    assert {v for row in got["corank"] for v in row} > {0}
    assert {v for row in got["gen_g"] for v in row} == {True, False}


def _restricted(m, pos):
    """The action of ``m`` restricted to the coordinates at ``pos``."""
    return {lbl: mat.submatrix(pos, pos) for lbl, mat in m.action.items()}


def test_a_sum_records_its_finest_summands_and_never_itself(a3rel, a2):
    pool = enumerate_indecomposables(a3rel, 2)
    a, b, c = pool[0], pool[1], pool[-1]
    zero = zero_module(a3rel)
    ab = direct_sum([a, b])[0]
    assert modules.summands(ab) == ((a, range(a.dim)), (b, range(a.dim, ab.dim)))
    nested = direct_sum([ab, zero, direct_sum([c, a])[0]])[0]
    starts = [0, a.dim, ab.dim, ab.dim + c.dim]
    assert modules.summands(nested) == tuple((x, range(s, s + x.dim)) for x, s in zip((a, b, c, a), starts))
    # a sum that equals one of its parts, or has no nonzero part, records
    # nothing new, so no module is its own summand
    for parts in ([a], [zero, a, zero], [zero], []):
        whole = direct_sum(parts, algebra=a3rel)[0]
        assert modules.summands(whole) == ((whole, range(whole.dim)),)
        assert modules.summands not in whole._memo
    assert direct_sum([zero, ab])[0] is ab and modules.summands(ab) == ((a, range(a.dim)), (b, range(a.dim, ab.dim)))
    # a tensor product records the products of the factors' summands, at
    # positions i·dim s + j; a zero factor, or two unrecorded factors, record
    # nothing
    tensor_alg = derive_algebra(a2, "tensor", b=a2)[0]
    x1, x2, y = enumerate_indecomposables(a2, 2)
    product = tensor_over_field(direct_sum([x1, x2])[0], direct_sum([y, x1])[0], tensor_alg)
    assert y.dim == 2 and modules.summands(product) == tuple(
        (tensor_over_field(u, v, tensor_alg), pos)
        for (u, v), pos in zip(itertools.product((x1, x2), (y, x1)), [(0, 1), (2,), (3, 4), (5,)])
    )
    for u, v in ((direct_sum([x1, x2])[0], zero_module(a2)), (zero_module(a2), direct_sum([y, x1])[0]), (y, x1)):
        whole = tensor_over_field(u, v, tensor_alg)
        assert modules.summands(whole) == ((whole, range(whole.dim)),)
    # a sum of products shifts each product's positions
    scattered = direct_sum([tensor_over_field(x1, x2, tensor_alg), product])[0]
    assert [pos for _, pos in modules.summands(scattered)] == [range(1), (1, 2), (3,), (4, 5), (6,)]
    pp = tensor_over_field(direct_sum([y, x1])[0], direct_sum([y, x1])[0], tensor_alg)
    for whole in (ab, nested, direct_sum([c, c, c])[0], product, pp, scattered):
        parts = modules.summands(whole)
        assert all(x is not whole and x.dim for x, _ in parts)
        assert sorted(i for _, pos in parts for i in pos) == list(range(whole.dim))
        assert all(_restricted(whole, pos) == x.action for x, pos in parts)


def _per_block_failing_label(m, n, mats):
    """The label the check names as first written: the two products of
    :func:`_check_commutes`, compared one block slice pair per label."""
    labels, p, q = m.algebra.labels, n.dim, m.dim
    left = Matrix.vstack([n.action[lbl] for lbl in labels]).mul(Matrix.hstack(mats)).data
    right = Matrix.vstack(mats).mul(Matrix.hstack([m.action[lbl] for lbl in labels])).data
    for j in range(len(mats)):
        for i, lbl in enumerate(labels):
            if any(left[i * p + r][j * q : (j + 1) * q] != right[j * p + r][i * q : (i + 1) * q] for r in range(p)):
                return lbl
    return None


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_row_commute_check_names_the_per_block_first_label(field):
    rng = random.Random(43)
    alg = compile_quiver_algebra(quiver_a3_rel(field))
    pool = _indecomposables(alg) + [regular_module(alg)]
    broken = 0
    for x, y in itertools.product(pool, repeat=2):
        mats = [h.matrix for h in hom_space(x, y)]
        if not mats:
            continue
        for _ in range(3):
            bad = [mat.copy() for mat in mats]
            for _ in range(rng.randrange(1, 3)):
                mat = rng.choice(bad)
                r, c = rng.randrange(y.dim), rng.randrange(x.dim)
                mat.data[r][c] = field.add(mat.data[r][c], field.one())
            expected = _per_block_failing_label(x, y, bad)
            assert expected == _first_failing_label(x, y, bad)
            if expected is None:
                _check_commutes(x, y, bad)
                continue
            broken += 1
            with pytest.raises(ValidationError, match=f"action of {expected!r}$"):
                _check_commutes(x, y, bad)
    assert broken > 20


def test_dimension_vectors_are_ranked_once_and_returned_fresh(monkeypatch, a3rel):
    ranks = []
    monkeypatch.setattr(modules, "rank", lambda mat: ranks.append(mat) or rank(mat))
    m = Module(a3rel, 5, permuted_actions(regular_module(a3rel)))
    first = m.dimension_vector()
    first["e1"] = 99
    again = m.dimension_vector()
    assert again == {"e1": 1, "e2": 2, "e3": 2} and again is not first
    assert len(ranks) == len(a3rel.idempotents)


@pytest.mark.parametrize("field", [F3, QQ], ids=["F3", "Q"])
def test_validation_joins_products_with_several_terms(field):
    # b_a·b_b = -(c*d) in the anticommutative square: over F_3 and Q the
    # product table holds a coefficient vector, not one basis index
    square = QuiverPresentation(
        ["1", "2", "3", "4"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")],
        [[("1", ["a", "b"]), ("1", ["c", "d"])]],
        field,
        3,
    )
    alg = compile_quiver_algebra(square)
    assert any(isinstance(k, list) for k in modules._product_table(alg))
    valid = [regular_module(alg)] + [simple_module(alg, lbl) for lbl, _ in alg.idempotents]
    valid += [p for p, _ in indecomposable_projectives(alg)]
    for mod in valid:
        assert mod._violations() == _reference_violations(alg, mod.dim, mod.action) == []
    found = 0
    for dim, action in _broken_actions(alg, valid, random.Random(5)):
        expected = _reference_violations(alg, dim, action)
        assert _reported_violations(alg, dim, action) == expected
        found += len(expected)
    assert found > 20


# ---------------------------------------------------------------------------
# The batched constructions against their per-label references: two products
# per conjugation, one solve per restriction
# ---------------------------------------------------------------------------


def _reference_restrict(basis, mats):
    """One solve per matrix, as ``submodule`` and ``_layer_module`` were
    written: the restrictions, or the index of the first matrix that moves a
    column out of the span."""
    out = []
    for i, mat in enumerate(mats):
        x = exactlinalg.solve(basis, mat.mul(basis))
        if x is None:
            return i
        out.append(x)
    return out


def _reference_conjugate(left, mats, right):
    """Two products per matrix."""
    return [left.mul(mat).mul(right) for mat in mats]


def _reference_hom_module_action(basis, alg, moves, on_values):
    """One coordinate solve per label, each on its own moved basis."""
    return {
        lbl: hom_coordinates(basis, [moves[lbl].mul(b.matrix) if on_values else b.matrix.mul(moves[lbl]) for b in basis])
        for lbl in alg.labels
    }


def _batch_algebras(field):
    a2 = compile_quiver_algebra(quiver_a2(field))
    return [
        a2,
        compile_quiver_algebra(quiver_a3_rel(field)),
        compile_quiver_algebra(quiver_dual_numbers(field)),
        derive_algebra(a2, "tensor", b=a2)[0],
    ]


def _batch_pool(alg, rng):
    """The zero module, the indecomposables of dimension <= 3, and random
    probes written in a random basis."""
    f = alg.field
    indecs = [mod for mod in _indecomposables(alg) if mod.dim <= 3]
    probes = [_conjugate(p, _unimodular(p.dim, f, rng)) for p in random_probe_modules(alg, 3, seed=5)]
    return [zero_module(alg)] + indecs + probes


def _column_bases(mod, rng):
    """Independent column sets of ``mod``: rad·M, e_v·M for each vertex, the
    kernel and the image of each endomorphism in the Hom basis, M itself,
    nothing, and one or two random columns.  Some are submodules, some not."""
    f, n = mod.algebra.field, mod.dim
    out = [mod.radical_columns(), Matrix.identity(f, n), Matrix.zeros(f, n, 0)]
    out += [_col_basis(mod.act(vec)) for _, vec in mod.algebra.idempotents]
    for h in hom_space(mod, mod):
        out += [nullspace(h.matrix), _col_basis(h.matrix)]
    for k in (1, 2):
        cols = Matrix(f, [[f.random(rng) for _ in range(k)] for _ in range(n)], n, k)
        if n and rank(cols) == k:
            out.append(cols)
    return out


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_submodules_and_quotients_match_the_per_label_reference(field):
    rng = random.Random(23)
    stable = unstable = later_label = 0
    for alg in _batch_algebras(field):
        labels = alg.labels
        for mod in _batch_pool(alg, rng):
            mats = [mod.action[lbl] for lbl in labels]
            for cols in _column_bases(mod, rng):
                expected = _reference_restrict(cols, mats)
                if isinstance(expected, int):
                    # Unstable columns: the batched solve fails, and the error
                    # names the label that the label-by-label solves hit first.
                    with pytest.raises(ValidationError) as err:
                        submodule(mod, cols)
                    assert str(err.value) == f"columns are not stable under the action of {labels[expected]!r}"
                    unstable += 1
                    later_label += expected > 0
                    continue
                sub, inc = submodule(mod, cols)
                assert [sub.action[lbl] for lbl in labels] == expected
                assert inc.matrix == cols
                quo, proj = quotient_module(mod, cols)
                section = exactlinalg.solve(proj.matrix, Matrix.identity(field, quo.dim))
                assert [quo.action[lbl] for lbl in labels] == _reference_conjugate(proj.matrix, mats, section)
                stable += 1
    assert stable > 100 and unstable > 20 and later_label > 5


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_kernel_inclusions_pass_the_checked_constructor(field):
    # submodule builds its inclusion unchecked, trusting the solve in
    # restrict; the checked constructor must accept every such inclusion.
    rng = random.Random(43)
    checked = 0
    for alg in _batch_algebras(field):
        pool = _batch_pool(alg, rng)
        for x, y in itertools.product(pool, repeat=2):
            for h in hom_space(x, y)[:2]:
                sub, inc = kernel(h)
                ModuleMap(sub, x, inc.matrix)
                assert h.matrix.mul(inc.matrix).is_zero()
                checked += sub.dim > 0
    assert checked > 20


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_adapted_actions_and_hom_modules_match_the_per_label_reference(field):
    rng = random.Random(29)
    for alg in _batch_algebras(field):
        reg = regular_module(alg)
        right = {lbl: alg.right_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)}
        opposite = opposite_algebra(alg)
        nonzero = 0
        for mod in _batch_pool(alg, rng):
            if mod.dim:
                ad = mod.adapted()
                seeds = alg.generating_set().seeds
                expected = _reference_conjugate(ad.to_adapted, [mod.act(vec) for _, vec, _ in seeds], ad.from_adapted)
                assert [ad.action[name] for name, _, _ in seeds] == expected
            # Hom(M, A) over A^op (moves on the values) and Hom(A, M) over A
            # (moves on the arguments), as ar_translate and the r functor use them
            for basis, over, on_values in [
                (hom_space(mod, reg), opposite, True),
                (hom_space(reg, mod), alg, False),
            ]:
                got = hom_module(basis, over, right, on_values=on_values)
                if basis:
                    assert got.action == _reference_hom_module_action(basis, over, right, on_values)
                    nonzero += 1
                else:
                    assert got.dim == 0
        assert nonzero > 4


@pytest.mark.parametrize("cells", [1, 100, 1 << 12])
def test_hom_modules_match_the_reference_in_label_runs(monkeypatch, cells):
    # hom_module takes as many labels per product and solve as keep the
    # moved maps within _BATCH_CELLS entries: one, uneven runs, or all.
    monkeypatch.setattr(modules, "_BATCH_CELLS", cells)
    rng = random.Random(41)
    for alg in _batch_algebras(F3):
        reg = regular_module(alg)
        right = {lbl: alg.right_mult_matrix(alg.basis_vector(i)) for i, lbl in enumerate(alg.labels)}
        for mod in [reg] + _batch_pool(alg, rng):
            for basis, over, on_values in [
                (hom_space(mod, reg), opposite_algebra(alg), True),
                (hom_space(reg, mod), alg, False),
            ]:
                if basis:
                    got = hom_module(basis, over, right, on_values=on_values).action
                    assert got == _reference_hom_module_action(basis, over, right, on_values)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_tensor_and_layer_modules_match_the_per_label_reference(field):
    rng = random.Random(37)
    for alg in _batch_algebras(field):
        ctx = idempotent_recollement(alg, [alg.idempotents[0][0]])
        corner_rows = [list(r) for r in ctx.data["corner_rows"].data]
        bimodules = [(Bimodule.regular(alg), _batch_pool(alg, rng))]
        bimodules.append((ctx.data["l_bimodule"], [zero_module(ctx.corner), regular_module(ctx.corner)]))
        for bimodule, pool in bimodules:
            nonzero = 0
            for y in pool:
                t, info = tensor_over_algebra(bimodule, y)
                if t.dim:
                    ident = Matrix.identity(field, y.dim)
                    bigs = [bimodule.left_action[lbl].kron(ident) for lbl in alg.labels]
                    expected = _reference_conjugate(info["projection"], bigs, info["section"])
                    assert [t.action[lbl] for lbl in alg.labels] == expected
                    nonzero += 1
            assert nonzero
        for mod in _batch_pool(alg, rng):
            # e·M over the corner algebra, as the e functor builds it
            E = _col_basis(mod.act(ctx.data["evec"]))
            mats = [mod.act(r) for r in corner_rows]
            layer = _layer_module(E, ctx.corner, mats)
            assert [layer.action[lbl] for lbl in ctx.corner.labels] == _reference_restrict(E, mats)
            # e·M under all of A: a failing restriction fails both ways
            mats = [mod.action[lbl] for lbl in alg.labels]
            if isinstance(_reference_restrict(E, mats), int):
                with pytest.raises(ValidationError, match="columns fall outside the subspace"):
                    _layer_module(E, alg, mats)
            else:
                assert [_layer_module(E, alg, mats).action[lbl] for lbl in alg.labels] == _reference_restrict(E, mats)


def test_conjugate_and_restrict_keep_shapes_at_zero_dimensions():
    f = F3
    left, right = Matrix.zeros(f, 0, 2), Matrix.zeros(f, 3, 4)
    assert conjugate(left, [Matrix.zeros(f, 2, 3)] * 2, right) == [Matrix.zeros(f, 0, 4)] * 2
    assert conjugate(left, [], right) == []
    basis = Matrix.zeros(f, 3, 0)
    assert restrict(basis, [Matrix.identity(f, 3)] * 2) == [Matrix.zeros(f, 0, 0)] * 2
    assert restrict(Matrix.zeros(f, 0, 0), [Matrix.zeros(f, 0, 0)]) == [Matrix.zeros(f, 0, 0)]
