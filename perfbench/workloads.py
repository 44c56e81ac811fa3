"""Inputs, operations and oracles of the in-process workloads.

Imported only by child processes (``child.py``), never by the runner, so the
runner stays free of ``silting_forge`` state.  ``setup`` builds everything a
pass needs from the seed and returns the operations: ``(kind, run, check)``
triples, where ``run()`` returns a JSON-ready answer and ``check(answer)``
returns ``None`` or the reason the answer is wrong.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

from silting_forge.algebra import derive_algebra
from silting_forge.exactlinalg import Matrix, invert
from silting_forge.io import CORPUS_DIR, algebra_from_json, corpus_load, dump_json, module_to_json
from silting_forge.modules import Module, ar_translate, decompose, hom_space, regular_module
from silting_forge.recollement import idempotent_recollement, random_probe_modules, run_adjunction_battery
from silting_forge.silting import enumerate_silting, silting_check
from silting_forge.gorenstein import gorenstein_report
from silting_forge.suites import run_suite

HERE = Path(__file__).resolve().parent
F3 = {"kind": "prime", "p": 3}
Q = {"kind": "rational"}

# Silting counts per (algebra, dimension bound).  Linear A_n gives the Catalan
# number C_{n+1} (Adachi-Iyama-Reiten, arXiv:1210.1036).  The counts do not
# depend on the field, so the F_3 counts must equal the F_2 counts of the same
# quivers (a3rel -> 12, A_2 (x) A_2 at bound 2 -> 24).
F3_SILTING_COUNTS = {("a2", 3): 5, ("a3", 3): 14, ("a3rel", 3): 12, ("a2xa2", 2): 24}

# Probe modules over Q: random_probe_modules(alg, n, seed) with a fixed probe
# seed per algebra, so the isomorphism types, and with them every answer, are
# fixed.  The benchmark seed then presents each probe in a random unimodular
# basis.  When the seed chose the isomorphism types instead, the cost of a pass
# swung by half between seeds; a new basis changes every matrix the queries
# see but not the work they have to do.  Each probe row is the answer at the
# commit that added this benchmark, the same in every basis tried:
# (dim M, silting verdict, [[summand dim, multiplicity]] sorted, dim tau M,
# dim End M).
Q_PROBES = {
    "a2": (3, [
        (2, "partial_silting_only", [[1, 2]], 0, 4),
        (1, "partial_silting_only", [[1, 1]], 0, 1),
        (3, "silting", [[1, 1], [2, 1]], 0, 3),
    ]),
    "a3": (18, [
        (2, "partial_silting_only", [[1, 2]], 0, 4),
        (3, "not_silting", [[1, 1], [1, 2]], 1, 5),
    ]),
    "a3rel": (119, [
        (3, "partial_silting_only", [[1, 1], [1, 2]], 1, 5),
        (4, "not_silting", [[1, 1], [1, 1], [2, 1]], 2, 4),
    ]),
}
BATTERY_COUNT = 10


def _check_equal(expected):
    def check(answer):
        return None if answer == expected else f"expected {expected!r}, got {answer!r}"

    return check


def _contains(expected, actual, path="report") -> str | None:
    """``expected`` is a projection of ``actual``: every key it has must match;
    keys that only ``actual`` has are ignored."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            reason = _contains(value, actual[key], f"{path}.{key}")
            if reason:
                return reason
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            reason = _contains(e, a, f"{path}[{i}]")
            if reason:
                return reason
        return None
    return None if expected == actual else f"{path}: expected {expected!r}, got {actual!r}"


# ---------------------------------------------------------------------------
# suites: the three bundled theorem suites, in an order set by the seed.
# ---------------------------------------------------------------------------


def _suites(seed: int, inputs: Path) -> list:
    expected = json.loads((HERE / "expected_suites.json").read_text())
    order = sorted(expected)
    random.Random(seed).shuffle(order)
    return [
        (name, functools.partial(run_suite, name), functools.partial(_contains, expected[name]))
        for name in order
    ]


# ---------------------------------------------------------------------------
# odd-fields: the corpus quivers compiled over F_3 and Q.
# ---------------------------------------------------------------------------


def _over(entry_id: str, field: dict):
    payload = json.loads((CORPUS_DIR / f"{entry_id}.json").read_text())["payload"]
    return algebra_from_json(dict(payload, field=field))


def _linear(n: int, field: dict):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [{"name": f"a{i}", "source": str(i), "target": str(i + 1)} for i in range(1, n)]
    return algebra_from_json(
        {"field": field, "quiver": {"vertices": vertices, "arrows": arrows}, "relations": []}
    )


def _unimodular(field, n: int, rng) -> Matrix:
    """L·U with unit triangular factors over {-1, 0, 1}: determinant 1, so
    the inverse is integral too and no entry grows a denominator."""
    lower = [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0 for j in range(n)] for i in range(n)]
    return Matrix.from_rows(field, lower).mul(Matrix.from_rows(field, upper))


def _rebase(m, rng):
    """The same module written in a random unimodular basis."""
    if m.dim == 0:
        return m
    p = _unimodular(m.algebra.field, m.dim, rng)
    p_inv = invert(p)
    return Module(m.algebra, m.dim, {lbl: p_inv.mul(a).mul(p) for lbl, a in m.action.items()})


def _decompose_answer(m):
    return {"module_dim": m.dim, "parts": sorted([p.dim, k] for p, k, _ in decompose(m))}


def _check_decompose(expected):
    """Summand dimensions times multiplicities add up to dim M, and the
    decomposition is the committed one."""

    def check(answer):
        total = sum(d * k for d, k in answer["parts"])
        if total != answer["module_dim"] or any(d < 1 or k < 1 for d, k in answer["parts"]):
            return f"summands {answer['parts']} do not add up to dim {answer['module_dim']}"
        return _check_equal(expected)(answer)

    return check


def _battery_answer(alg, seed: int):
    ctx = idempotent_recollement(alg, ("e2",))
    return run_adjunction_battery(ctx, BATTERY_COUNT, seed)


def _check_battery(answer):
    pairs = BATTERY_COUNT // 2
    if answer.get("pairs") != pairs or any(v != pairs for v in answer.values()):
        return f"battery checked {answer} instead of {pairs} pairs per identity"
    return None


def _gorenstein_answer(alg):
    report = gorenstein_report(alg)
    return [report.verdict, report.left_injective_dimension, report.right_injective_dimension]


def _odd_fields(seed: int, inputs: Path) -> list:
    f3 = {"a2": _linear(2, F3), "a3": _linear(3, F3), "a3rel": _over("a3rel", F3)}
    f3["a2xa2"], _ = derive_algebra(f3["a2"], "tensor", b=f3["a2"])
    q = {"a2": _linear(2, Q), "a3": _linear(3, Q), "a3rel": _over("a3rel", Q)}
    dualnum = _over("dualnum", Q)
    ops = [
        (f"f3.enumerate.{name}", lambda a=f3[name], b=bound: len(enumerate_silting(a, b)), _check_equal(count))
        for (name, bound), count in F3_SILTING_COUNTS.items()
    ]
    rng = random.Random(seed)
    for name, (probe_seed, rows) in Q_PROBES.items():
        alg = q[name]
        ops.append(
            (f"q.{name}.regular.silting_check", lambda a=alg: silting_check(regular_module(a)).verdict,
             _check_equal("silting"))
        )
        probes = random_probe_modules(alg, len(rows), seed=probe_seed)
        for i, (probe, (dim, verdict, parts, tau_dim, end_dim)) in enumerate(zip(probes, rows)):
            m = _rebase(probe, rng)
            ops += [
                (f"q.{name}.{i}.silting_check", lambda m=m: [m.dim, silting_check(m).verdict],
                 _check_equal([dim, verdict])),
                (f"q.{name}.{i}.decompose", functools.partial(_decompose_answer, m),
                 _check_decompose({"module_dim": dim, "parts": parts})),
                (f"q.{name}.{i}.ar_translate", lambda m=m: [m.dim, ar_translate(m).dim],
                 _check_equal([dim, tau_dim])),
                (f"q.{name}.{i}.hom_space", lambda m=m: [m.dim, len(hom_space(m, m))],
                 _check_equal([dim, end_dim])),
            ]
    ops.append(
        ("q.battery.a3rel", functools.partial(_battery_answer, q["a3rel"], seed), _check_battery)
    )
    ops.append(
        ("q.gorenstein_report.dualnum", functools.partial(_gorenstein_answer, dualnum),
         _check_equal(["gorenstein", 0, 0]))
    )
    return ops


# ---------------------------------------------------------------------------
# cli: set-up only writes the seeded module files the commands read.
# ---------------------------------------------------------------------------


# Module files of the cli workload: random_probe_modules(alg, 1, seed) with a
# fixed probe seed, written in a basis the benchmark seed chooses, as for the Q
# probes.  a3rel: dim 4, summands of dim 1, 1, 2; a2xa2: dim 5, summands of
# dim 1, 1, 3; the a3rel/e2 quotient: dim 2, two simple summands.
CLI_PROBES = {"a3rel_module.json": 16, "a2xa2_module.json": 54, "a3rel_quotient_module.json": 12}


def _cli(seed: int, inputs: Path) -> list:
    inputs.mkdir(parents=True, exist_ok=True)
    a2, a3rel, a2xa2 = corpus_load("a2"), corpus_load("a3rel"), corpus_load("a2xa2")
    quotient = idempotent_recollement(a3rel, ("e2",)).quotient
    rng = random.Random(seed)

    def probe(alg, name):
        return _rebase(random_probe_modules(alg, 1, seed=CLI_PROBES[name])[0], rng)

    modules = {
        "a2_regular.json": module_to_json(regular_module(a2), "a2"),
        "a3rel_module.json": module_to_json(probe(a3rel, "a3rel_module.json"), "a3rel"),
        "a2xa2_module.json": module_to_json(probe(a2xa2, "a2xa2_module.json"), "a2xa2"),
        "a3rel_quotient_module.json": module_to_json(probe(quotient, "a3rel_quotient_module.json")),
    }
    for name, data in modules.items():
        (inputs / name).write_text(dump_json(data))
    return []


SETUP = {"suites": _suites, "odd-fields": _odd_fields, "cli": _cli}


def setup(workload: str, seed: int, inputs: Path) -> list:
    return SETUP[workload](seed, inputs)
