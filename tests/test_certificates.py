"""Golden certificates of the two two-term checks.

``tests/golden/certificates.json`` pins the whole ``to_json()`` of
:func:`~silting_forge.silting.silting_check` and
:func:`~silting_forge.gorenstein.gorenstein_silting_check` -- verdicts,
notes, probe records, mismatches and approximation rows -- over small
modules of the corpus algebras and of A_2 over Q, at the automatic and at a
supplied presentation, with the default, a bounded and an empty probe sweep.
"""

import itertools
import json
from pathlib import Path

from conftest import QQ, quiver_a2

from silting_forge.algebra import compile_quiver_algebra
from silting_forge.gorenstein import (
    GpClassification,
    gorenstein_report,
    gorenstein_silting_check,
    gp_classification,
    proper_gp_presentation,
)
from silting_forge.io import corpus_load
from silting_forge.modules import (
    direct_sum,
    enumerate_indecomposables,
    indecomposable_projectives,
    minimal_projective_presentation,
    regular_module,
    simple_module,
)
from silting_forge.silting import presentation_with_complement, silting_check

GOLDEN_CERTIFICATES = Path(__file__).parent / "golden" / "certificates.json"


def _modules(alg, indecs):
    """Each listed indecomposable, named by its index, then each sum of two."""
    out = [(f"i{i}", m) for i, m in enumerate(indecs)]
    for (i, m), (j, n) in itertools.combinations_with_replacement(list(enumerate(indecs)), 2):
        out.append((f"i{i}+i{j}", direct_sum([m, n], algebra=alg)[0]))
    return out


def _rows(alg_id, alg, modules, gp, finite):
    """The certificate rows of one algebra: the absolute check at AUTO with
    each probe choice, at the supplied minimal presentation and at the
    minimal presentation padded by every projective, then the relative check
    at AUTO and at the supplied proper presentation."""
    projectives = [p for p, _ in indecomposable_projectives(alg)]
    rows = []

    def row(name, check, presentation, probe, cert):
        rows.append({
            "algebra": alg_id,
            "module": name,
            "check": check,
            "presentation": presentation,
            "probe": probe,
            "certificate": cert.to_json(),
        })

    for name, t in modules:
        row(name, "silting", "auto", "default", silting_check(t))
        if finite:
            row(name, "silting", "auto", 2, silting_check(t, probe=2))
        row(name, "silting", "auto", [], silting_check(t, probe=[]))
        row(name, "silting", "minimal", "default", silting_check(t, minimal_projective_presentation(t)))
        row(name, "silting", "padded", "default",
            silting_check(t, presentation_with_complement(t, projectives), dim_bound=2))
        row(name, "gorenstein", "auto", "default", gorenstein_silting_check(t, "AUTO", gp))
        row(name, "gorenstein", "auto", [], gorenstein_silting_check(t, "AUTO", gp, probe=[]))
        row(name, "gorenstein", "proper", "default",
            gorenstein_silting_check(t, proper_gp_presentation(t, gp), gp))
    return rows


def certificate_report() -> str:
    """Every certificate the golden file pins, as a JSON list with one row
    per line, each with sorted keys, so that a changed row shows as one line.

    Regenerate with ``PYTHONPATH=src:tests python -c "import test_certificates
    as t; t.GOLDEN_CERTIFICATES.write_text(t.certificate_report())"``."""
    rows = []
    for alg_id in ("a2", "a3rel", "dualnum", "kxk"):
        alg = corpus_load(alg_id)
        rows += _rows(alg_id, alg, _modules(alg, enumerate_indecomposables(alg, 2)), gp_classification(alg), True)
    # Over Q there is no probe enumeration.  A_2 is hereditary, so its GP
    # modules are its projectives, and the classification is built by hand.
    a2q = compile_quiver_algebra(quiver_a2(QQ))
    projectives = [p for p, _ in indecomposable_projectives(a2q)]
    gp = GpClassification(
        algebra=a2q, dim_bound=2, modules=projectives, complete=True,
        report=gorenstein_report(a2q), notes=("projectives of a hereditary algebra",),
    )
    modules = [("s1", simple_module(a2q, "e1")), ("s2", simple_module(a2q, "e2")), ("regular", regular_module(a2q))]
    rows += _rows("a2-q", a2q, modules, gp, False)
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n"


def test_certificates_match_golden():
    assert certificate_report() == GOLDEN_CERTIFICATES.read_text(encoding="utf-8")
