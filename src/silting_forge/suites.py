"""Named verification suites over the bundled corpus.

Each runner returns a JSON-ready report with one row per checked instance and
an aggregate verdict.  Reports contain no wall-clock data, so fixed inputs
yield byte-identical output across runs.  A driver that stops undecided
before evaluating any atom gives an UNDECIDED row carrying its reason.
"""

from __future__ import annotations

import itertools

from . import SUITES
from .algebra import ValidationError
from .io import corpus_load, resolve_context
from .modules import (
    direct_sum,
    enumerate_indecomposables,
    regular_module,
    simple_module,
    zero_module,
)
from .recollement import idempotent_recollement, verify_transfer
from .silting import enumerate_silting, tensor_silting


def _aggregate(rows):
    verdicts = {row["verdict"] for row in rows}
    if "FAIL" in verdicts:
        return "FAIL"
    if "UNDECIDED" in verdicts:
        return "UNDECIDED"
    return "PASS"


def run_idempotent_suite() -> dict:
    """Silting-verdict equality across the idempotent-ideal quotient.

    For (a2, e2) and (a3rel, e2): every multiplicity-free sum drawn from the
    indecomposables of the quotient algebra is checked over the quotient and,
    via inflation, over the ambient algebra, and the two existential silting
    verdicts must agree.
    """
    rows = []
    for corpus_id in ("a2", "a3rel"):
        alg = corpus_load(corpus_id)
        ctx = idempotent_recollement(alg, ("e2",))
        pool = enumerate_indecomposables(ctx.quotient, 3)
        for r in range(len(pool) + 1):
            for combo in itertools.combinations(range(len(pool)), r):
                if combo:
                    t, _, _ = direct_sum([pool[i] for i in combo], algebra=ctx.quotient)
                else:
                    t = zero_module(ctx.quotient)
                report = verify_transfer(ctx, "thm_idempotent_ideal", {"t": t})
                row = {
                    "algebra": corpus_id,
                    "summands": list(combo),
                    "module_dimension_vector": t.dimension_vector(),
                    "verdict": report.verdict,
                }
                if report.atoms:
                    row["quotient_verdict"] = report.atoms["silting_over_quotient"]["verdict"]
                    row["middle_verdict"] = report.atoms["silting_over_middle"]["verdict"]
                else:
                    row["reason"] = report.witnesses[0]["reason"]
                rows.append(row)
    return {
        "suite": "idempotent",
        "rows": rows,
        "verdict": _aggregate(rows),
    }


def run_tensor_suite() -> dict:
    """Tensor products of the two silting lists of a2 over the tensor algebra.

    All pairs from the enumerated silting list are transported with the
    totalized presentation; the report also records, per pair, whether the
    termwise two-term map presents the tensor module (it fails to in the
    degenerate rows, which the suite must flag).

    ``silting_count``, each row's ``verdict`` and the suite ``verdict`` refer
    to the totalized presentation.  Each row's ``existential_verdict`` says
    whether the tensor module is silting under some presentation (see
    :func:`~.silting.tensor_silting`); ``existential_silting_count`` counts
    those rows and ``counterexamples`` lists the pairs whose tensor module is
    definitely not silting.
    """
    alg = corpus_load("a2")
    tensor_alg = corpus_load("a2xa2")
    certs = enumerate_silting(alg, 3)
    rows = []
    for i, ci in enumerate(certs):
        for j, cj in enumerate(certs):
            _, _, cert, report = tensor_silting(
                ci.module,
                ci.presentation,
                cj.module,
                cj.presentation,
                tensor_alg=tensor_alg,
                dim_bound=2,
            )
            rows.append(
                {
                    "pair": [i, j],
                    "tensor_dim": report["tensor_module_dim"],
                    "verdict": cert.verdict,
                    "termwise_map_presents_tensor_module": report[
                        "termwise_map_presents_tensor_module"
                    ],
                    "existential_verdict": report["existential_verdict"],
                }
            )
    silting_count = sum(1 for row in rows if row["verdict"] == "silting")
    degenerate_flagged = any(
        not row["termwise_map_presents_tensor_module"] for row in rows
    )
    verdict = "PASS" if silting_count == len(rows) and degenerate_flagged else "FAIL"
    if any(row["verdict"] == "undecided" for row in rows) and verdict != "PASS":
        verdict = "UNDECIDED"
    return {
        "suite": "tensor",
        "pairs": len(rows),
        "silting_count": silting_count,
        "degenerate_termwise_map_flagged": degenerate_flagged,
        "existential_silting_count": sum(
            1 for row in rows if row["existential_verdict"] == "silting"
        ),
        "counterexamples": [
            row["pair"]
            for row in rows
            if row["existential_verdict"] in ("not_silting", "partial_silting_only")
        ],
        "rows": rows,
        "verdict": verdict,
    }


def run_gluing_suite(context_ref: str | None = None) -> dict:
    """The gluing-theorem grid over the bundled triangular context.

    X ranges over multiples of the top simple, Y over sums drawn from the
    bottom simple and the bottom regular module; each pair runs the full
    equivalence driver, and every report must satisfy both recorded
    equivalences.  Each left approximation the driver needs is one test of
    the universal map into add(t).
    """
    tctx = resolve_context(context_ref) if context_ref else corpus_load("gamma0")
    top_simple = simple_module(tctx.a, tctx.a.idempotents[0][0])
    bottom_simple = simple_module(tctx.b, tctx.b.idempotents[0][0])
    bottom_regular = regular_module(tctx.b)

    def top(copies):
        if copies == 0:
            return zero_module(tctx.a)
        total, _, _ = direct_sum([top_simple] * copies, algebra=tctx.a)
        return total

    def bottom(parts):
        if not parts:
            return zero_module(tctx.b)
        total, _, _ = direct_sum(list(parts), algebra=tctx.b)
        return total

    xs = [("0", top(0)), ("k", top(1)), ("k2", top(2))]
    ys = [
        ("0", bottom([])),
        ("k", bottom([bottom_simple])),
        ("D", bottom([bottom_regular])),
        ("D+k", bottom([bottom_regular, bottom_simple])),
        ("k2", bottom([bottom_simple, bottom_simple])),
    ]
    rows = []
    for (xn, x), (yn, y) in itertools.product(xs, ys):
        report = verify_transfer(tctx, "thm_gluing_equivalences", {"x": x, "y": y})
        row = {"x": xn, "y": yn, "verdict": report.verdict}
        if report.atoms:
            row["atoms"] = {atom: report.atoms[atom]["value"] for atom in "abcdef"}
            row["equivalence_a_b"] = report.atoms["equivalence_a_b"]
            row["equivalence_a_cdef"] = report.atoms["equivalence_a_cdef"]
        else:
            row["reason"] = report.witnesses[0]["reason"]
        rows.append(row)
    return {
        "suite": "gluing",
        "rows": rows,
        "verdict": _aggregate(rows),
    }


def run_suite(name: str, context_ref: str | None = None) -> dict:
    """One named suite, or all three; only the gluing suite reads
    ``context_ref``, and it tests the universal map as each left
    approximation."""
    if name == "idempotent":
        return run_idempotent_suite()
    if name == "tensor":
        return run_tensor_suite()
    if name == "gluing":
        return run_gluing_suite(context_ref=context_ref)
    if name == "all":
        reports = {
            "idempotent": run_idempotent_suite(),
            "tensor": run_tensor_suite(),
            "gluing": run_gluing_suite(context_ref=context_ref),
        }
        return {"suite": "all", "suites": reports, "verdict": _aggregate(reports.values())}
    raise ValidationError(f"unknown suite {name!r}; have {', '.join(SUITES)}")
