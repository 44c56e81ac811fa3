"""End-to-end tests for the ``silting-forge`` command-line interface.

Every test drives :func:`silting_forge.cli.run` exactly as the console
script does and asserts on the printed JSON payload plus the process
exit code contract: 0 for positive verdicts, 1 for negative ones,
2 for undecided/out-of-bound results, 3 for usage and input errors.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import silting_forge
import silting_forge.io as siomod
import silting_forge.suites as smod
from conftest import F3, quiver_a2
from silting_forge.algebra import ValidationError, compile_quiver_algebra
from silting_forge.cli import _build_parser, run
from silting_forge.exactlinalg import Matrix
from silting_forge.io import corpus_load, dump_json, matrix_to_json, module_from_json, module_to_json
from silting_forge.modules import (
    minimal_projective_presentation,
    regular_module,
    simple_module,
    zero_module,
)
from silting_forge.recollement import idempotent_recollement


def cli(*argv: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, json.loads(buf.getvalue())


def cli_raw(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def a2():
    return corpus_load("a2")


@pytest.fixture()
def regular_file(a2, tmp_path):
    path = tmp_path / "regular.json"
    path.write_text(dump_json(module_to_json(regular_module(a2), "a2")))
    return str(path)


@pytest.fixture()
def simple1_file(a2, tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(dump_json(module_to_json(simple_module(a2, "e1"), "a2")))
    return str(path)


# ---------------------------------------------------------------------------
# documented headline examples
# ---------------------------------------------------------------------------


def test_silting_check_regular_module_passes(regular_file):
    code, out = cli(
        "silting", "check", "--algebra", "a2",
        "--module", regular_file, "--presentation", "auto",
    )
    assert code == 0
    assert out["verdict"] == "silting"


def test_algebra_build_rejects_inadmissible_relation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"kind": "prime", "p": 2},
        "quiver": {
            "vertices": ["1"],
            "arrows": [{"name": "x", "source": "1", "target": "1"}],
        },
        "relations": [[{"coeff": "1", "path": ["x"]}]],
        "length_bound": 4,
    }))
    code, out = cli("algebra", "build", "--quiver", str(bad))
    assert code == 3
    assert out["error"]["type"] == "ValidationError"


def test_corpus_list_bundled_entries():
    code, out = cli("corpus", "list")
    assert code == 0
    ids = [entry["id"] for entry in out["entries"]]
    assert ids == sorted(ids)
    assert {"a2", "a2xa2", "a3rel", "dualnum", "gamma0", "kxk"} <= set(ids)
    for entry in out["entries"]:
        assert set(entry) == {"id", "kind", "path", "content_hash"}


def test_theorem_suite_idempotent_passes():
    code, out = cli("theorems", "run", "--suite", "idempotent")
    assert code == 0
    assert out["verdict"] == "PASS"
    assert len(out["rows"]) == 6
    for row in out["rows"]:
        assert row["quotient_verdict"] == row["middle_verdict"]


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_negative_verdict_exits_one(simple1_file):
    code, out = cli(
        "silting", "check", "--algebra", "a2",
        "--module", simple1_file, "--presentation", "auto",
    )
    assert code == 1
    assert out["verdict"] == "not_silting"


def _presentation_file(path, source, target, matrix):
    path.write_text(dump_json({
        "source": module_to_json(source, "a2"),
        "target": module_to_json(target, "a2"),
        "matrix": matrix_to_json(matrix),
    }))
    return str(path)


def test_presentation_file_terms_must_be_projective(a2, simple1_file, tmp_path):
    s1 = simple_module(a2, "e1")
    minimal = minimal_projective_presentation(s1).map
    good = _presentation_file(tmp_path / "good.json", minimal.source, minimal.target, minimal.matrix)
    code, out = cli(
        "silting", "check", "--algebra", "a2",
        "--module", simple1_file, "--presentation", good,
    )
    assert (code, out["presentation"]["kind"]) == (1, "projective")
    # 0 -> S1 presents S1, but its P0 is the non-projective simple S1
    bad = _presentation_file(tmp_path / "bad.json", zero_module(a2), s1, Matrix.zeros(a2.field, 1, 0))
    code, out = cli(
        "silting", "check", "--algebra", "a2",
        "--module", simple1_file, "--presentation", bad,
    )
    assert code == 3
    assert out["error"]["type"] == "ValidationError"
    code, out = cli(
        "silting", "tensor", "--left", "a2", "--left-module", simple1_file,
        "--right", "a2", "--right-module", simple1_file, "--left-presentation", bad,
    )
    assert code == 3
    assert out["error"]["type"] == "ValidationError"


def test_out_of_bound_report_exits_two():
    code, out = cli("gorenstein", "report", "--algebra", "a3rel", "--bound", "1")
    assert code == 2
    assert out["verdict"] == "not_within_bound"


def test_malformed_json_exits_three(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, out = cli("silting", "check", "--algebra", "a2", "--module", str(broken))
    assert code == 3
    assert out["error"]["type"] == "ValidationError"


def test_unknown_subcommand_exits_three():
    code, out = cli("silting", "frobnicate")
    assert code == 3
    assert out["error"]["type"] == "usage"


def test_missing_arguments_exit_three():
    code, out = cli()
    assert code == 3
    code, out = cli("module")
    assert code == 3


def test_invalid_module_action_reported(a2, tmp_path):
    data = module_to_json(simple_module(a2, "e1"), "a2")
    data["action"]["a"] = [["1"]]
    bad = tmp_path / "bad_module.json"
    bad.write_text(dump_json(data))
    code, out = cli("module", "validate", "--algebra", "a2", "--module", str(bad))
    assert code == 1
    assert out["valid"] is False
    assert "structure constants" in out["reason"]


def test_degenerate_quotient_functor_exits_three(regular_file):
    code, out = cli(
        "recollement", "apply", "--algebra", "a2", "--e", "e1,e2",
        "--functor", "i", "--module", regular_file,
    )
    assert code == 3
    assert out["error"]["type"] == "ValidationError"


# ---------------------------------------------------------------------------
# algebra group
# ---------------------------------------------------------------------------


def test_algebra_build_from_corpus_definition():
    from silting_forge.io import CORPUS_DIR

    code, out = cli("algebra", "build", "--quiver", str(CORPUS_DIR / "a2.json"))
    assert code == 0
    assert out["dim"] == 3
    assert out["labels"] == ["e1", "e2", "a"]


def test_algebra_derive_variants():
    for kind, extra, dim in [
        ("opposite", [], 3),
        ("corner", ["--e", "e2"], 1),
        ("quotient", ["--e", "e2"], 1),
        ("tensor", ["--right", "a2"], 9),
    ]:
        code, out = cli("algebra", "derive", "--base", "a2", "--kind", kind, *extra)
        assert code == 0, kind
        assert out["dim"] == dim, kind


def test_algebra_triangular_from_context():
    code, out = cli("algebra", "triangular", "--context", "gamma0")
    assert code == 0
    assert out["triangular"]["dim"] == 5
    assert all(out["hypotheses"].values())


# ---------------------------------------------------------------------------
# module group
# ---------------------------------------------------------------------------


def test_module_validate_accepts_valid_module(simple1_file):
    code, out = cli("module", "validate", "--algebra", "a2", "--module", simple1_file)
    assert code == 0
    assert out == {"dim": 1, "dimension_vector": {"e1": 1, "e2": 0}, "valid": True}


def test_module_hom_and_tau(a2, tmp_path, simple1_file):
    s2 = tmp_path / "s2.json"
    s2.write_text(dump_json(module_to_json(simple_module(a2, "e2"), "a2")))
    code, out = cli("module", "hom", "--algebra", "a2",
                    "--source", simple1_file, "--target", str(s2))
    assert code == 0
    assert out["dim"] == 0
    code, out = cli("module", "tau", "--algebra", "a2", "--module", simple1_file)
    assert code == 0
    assert out["translate"]["dim"] == 1


def test_module_decompose_regular(regular_file):
    code, out = cli("module", "decompose", "--algebra", "a2", "--module", regular_file)
    assert code == 0
    dims = sorted(part["dim"] for part in out["parts"])
    assert dims == [1, 2]


def test_module_enumerate_with_bound():
    code, out = cli("module", "enumerate", "--algebra", "a2", "--dim-bound", "2")
    assert code == 0
    assert out["count"] == 3
    assert len(out["dimension_vectors"]) == 3


# ---------------------------------------------------------------------------
# silting and gorenstein groups
# ---------------------------------------------------------------------------


def test_silting_enumerate_matches_expected_count():
    code, out = cli("silting", "enumerate", "--algebra", "a2", "--dim-bound", "2")
    assert code == 0
    assert len(out["certificates"]) == 5
    for cert in out["certificates"]:
        assert cert["verdict"] == "silting"


def test_silting_tensor_of_regulars(regular_file):
    code, out = cli(
        "silting", "tensor",
        "--left", "a2", "--left-module", regular_file,
        "--right", "a2", "--right-module", regular_file,
    )
    assert code == 0
    assert out["certificate"]["verdict"] == "silting"


def test_gorenstein_report_and_gp():
    code, out = cli("gorenstein", "report", "--algebra", "dualnum", "--bound", "6")
    assert code == 0
    assert out["verdict"] == "gorenstein"
    code, out = cli("gorenstein", "gp", "--algebra", "dualnum", "--dim-bound", "2")
    assert code == 0
    assert out["count"] == 2
    assert {"ev": 2} in out["dimension_vectors"]


def test_gorenstein_gp_single_module(regular_file):
    code, out = cli("gorenstein", "gp", "--algebra", "a2", "--module", regular_file)
    assert code == 0
    assert out["holds"] is True


def test_gorenstein_check_regular(regular_file):
    code, out = cli(
        "gorenstein", "check", "--algebra", "a2",
        "--module", regular_file, "--presentation", "auto",
    )
    assert code == 0
    assert out["verdict"] == "gorenstein_silting"


def test_gorenstein_check_certifies_at_the_maximal_padding(simple1_file):
    # S(e1) over a2 fails against its proper presentation P(e2) -> P(e1)
    # alone; padded by P(e2) -> 0, since Hom(P(e2), S(e1)) = 0, it is
    # Gorenstein-silting.
    code, out = cli("gorenstein", "check", "--algebra", "a2", "--module", simple1_file)
    assert code == 0
    assert out["verdict"] == "gorenstein_silting"
    assert (out["presentation"]["g1_dim"], out["presentation"]["g0_dim"]) == (2, 2)


# ---------------------------------------------------------------------------
# recollement group
# ---------------------------------------------------------------------------


def test_recollement_build_reports_layers():
    code, out = cli("recollement", "build", "--algebra", "a2", "--e", "e2")
    assert code == 0
    assert out["middle_dim"] == 3
    assert out["corner_dim"] == 1
    assert out["quotient_dim"] == 1


def test_recollement_apply_functor(regular_file):
    code, out = cli(
        "recollement", "apply", "--algebra", "a2", "--e", "e2",
        "--functor", "q", "--module", regular_file,
    )
    assert code == 0
    assert out["image"]["dim"] == 1


def test_recollement_verify_idempotent_statement(a2, tmp_path):
    ctx = idempotent_recollement(a2, ("e2",))
    module = tmp_path / "quotient_regular.json"
    module.write_text(dump_json(module_to_json(regular_module(ctx.quotient))))
    code, out = cli(
        "recollement", "verify", "--statement", "thm_idempotent_ideal",
        "--algebra", "a2", "--e", "e2", "--module", str(module),
    )
    assert code == 0
    assert out["verdict"] == "PASS"


def test_recollement_verify_gluing_statement(tmp_path):
    tctx = corpus_load("gamma0")
    x = tmp_path / "x.json"
    x.write_text(dump_json(module_to_json(simple_module(tctx.a, "eu"))))
    y = tmp_path / "y.json"
    y.write_text(dump_json(module_to_json(regular_module(tctx.b))))
    code, out = cli(
        "recollement", "verify", "--statement", "thm_gluing_equivalences",
        "--context", "gamma0", "--x", str(x), "--y", str(y),
    )
    assert code == 0
    assert out["verdict"] == "PASS"
    assert out["atoms"]["equivalence_a_b"] is True
    assert out["atoms"]["equivalence_a_cdef"] is True


def test_recollement_verify_module_over_wrong_algebra(regular_file):
    code, out = cli(
        "recollement", "verify", "--statement", "thm_idempotent_ideal",
        "--algebra", "a2", "--e", "e2", "--module", regular_file,
    )
    assert code == 3
    assert out["error"]["type"] == "ValidationError"


# ---------------------------------------------------------------------------
# corpus management and determinism
# ---------------------------------------------------------------------------


def test_corpus_add_and_list(regular_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SILTING_FORGE_CACHE", str(tmp_path / "cache"))
    code, out = cli("corpus", "add", "--file", regular_file,
                    "--id", "myreg", "--kind", "module")
    assert code == 0
    assert out["added"]["id"] == "myreg"
    code, out = cli("corpus", "list")
    assert code == 0
    assert "myreg" in [entry["id"] for entry in out["entries"]]
    # shadowing a bundled id is refused
    code, out = cli("corpus", "add", "--file", regular_file,
                    "--id", "a2", "--kind", "module")
    assert code == 3


def test_cli_output_is_byte_deterministic(regular_file):
    first = cli_raw("silting", "check", "--algebra", "a2",
                    "--module", regular_file, "--presentation", "auto")
    second = cli_raw("silting", "check", "--algebra", "a2",
                     "--module", regular_file, "--presentation", "auto")
    assert first[0] == 0
    assert first == second
    run_a = cli_raw("theorems", "run", "--suite", "idempotent")
    run_b = cli_raw("theorems", "run", "--suite", "idempotent")
    assert run_a == run_b


def test_no_subcommand_takes_a_budget(regular_file, gamma0_files):
    # Each left approximation is one universal map, so nothing is left for a
    # search budget to cap: the commands that took --budget reject it.
    x, y = gamma0_files
    for argv in [
        ("gorenstein", "check", "--algebra", "a2", "--module", regular_file, "--presentation", "auto"),
        ("recollement", "verify", "--statement", "thm_gluing_equivalences", "--context", "gamma0",
         "--x", x, "--y", y),
        ("theorems", "run", "--suite", "gluing"),
    ]:
        _assert_unread_flag_rejected((*argv, "--budget", "5"), "--budget")
    code, out = cli("gorenstein", "check", "--algebra", "a2", "--module", regular_file)
    assert code == 0 and out["verdict"] == "gorenstein_silting"


def _leaf_parsers():
    """``(group command, parser)`` for every subcommand of the CLI."""
    def subparsers(parser):
        actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return actions[0].choices if actions else {}

    for group, group_parser in subparsers(_build_parser()).items():
        for command, parser in subparsers(group_parser).items():
            yield f"{group} {command}", parser


SHARED_FLAGS = {"--field", "--dim-bound", "--length-bound"}
LENGTH_BOUND_GROUPS = ("algebra", "module", "silting", "gorenstein", "recollement")
FLAGS_BEYOND_LENGTH_BOUND = {
    "algebra build": {"--field"},
    "module enumerate": {"--dim-bound"},
    "silting check": {"--dim-bound"},
    "silting enumerate": {"--dim-bound"},
    "silting tensor": {"--dim-bound"},
    "gorenstein gp": {"--dim-bound"},
}


def test_each_subcommand_takes_only_the_shared_flags_it_reads():
    slots = 0
    leaves = dict(_leaf_parsers())
    assert len(leaves) == 20
    for name, parser in leaves.items():
        declared = {o for a in parser._actions for o in a.option_strings} & SHARED_FLAGS
        expected = set(FLAGS_BEYOND_LENGTH_BOUND.get(name, ()))
        if name.split()[0] in LENGTH_BOUND_GROUPS:
            expected.add("--length-bound")
        assert declared == expected, name
        slots += len(declared)
    assert slots == 23


def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(regular_file):
    for argv in [
        ("silting", "check", "--algebra", "a2", "--module", regular_file, "--field", "7"),
        ("corpus", "list", "--dim-bound", "5"),
    ]:
        code, out = cli(*argv)
        assert code == 3, argv
        assert out["error"]["type"] == "usage"


def _assert_unread_flag_rejected(argv, flag):
    code, out = cli(*argv)
    assert code == 3, argv
    assert out["error"]["type"] == "usage"
    assert flag in out["error"]["message"]


def test_gp_of_one_module_rejects_a_dim_bound(regular_file):
    gp = ("gorenstein", "gp", "--algebra", "a2")
    _assert_unread_flag_rejected((*gp, "--module", regular_file, "--dim-bound", "4"), "--dim-bound")
    # Without --module the bound is read, and it still defaults to 4.
    code, out = cli(*gp)
    assert code == 0 and out["dim_bound"] == 4


def test_recollement_verify_rejects_a_probe_on_an_idempotent_statement(regular_file):
    # Only the triangular statements read --probe.
    _assert_unread_flag_rejected(
        ("recollement", "verify", "--statement", "lemma_q_transfer", "--algebra", "a2", "--e", "e2",
         "--module", regular_file, "--probe", "2"),
        "--probe",
    )
    code, out = cli("recollement", "verify", "--statement", "lemma_q_transfer", "--algebra", "a2",
                    "--e", "e2", "--module", regular_file)
    assert code == 0 and out["verdict"] == "PASS"


def test_recollement_verify_rejects_a_budget_on_an_idempotent_statement(regular_file):
    # No statement reads a budget, and an idempotent statement never did.
    for budget in ("1", "5", "4096"):
        _assert_unread_flag_rejected(
            ("recollement", "verify", "--statement", "lemma_q_transfer", "--algebra", "a2", "--e", "e2",
             "--module", regular_file, "--budget", budget),
            "--budget",
        )


@pytest.fixture()
def gamma0_files(tmp_path):
    tctx = corpus_load("gamma0")
    x = tmp_path / "x.json"
    x.write_text(dump_json(module_to_json(simple_module(tctx.a, "eu"))))
    y = tmp_path / "y.json"
    y.write_text(dump_json(module_to_json(regular_module(tctx.b))))
    return str(x), str(y)


def test_recollement_verify_on_a_context_rejects_a_length_bound(gamma0_files):
    x, y = gamma0_files
    _assert_unread_flag_rejected(
        ("recollement", "verify", "--statement", "thm_gluing_equivalences", "--context", "gamma0",
         "--x", x, "--y", y, "--length-bound", "5"),
        "--length-bound",
    )


def test_algebra_triangular_on_a_context_rejects_a_length_bound():
    _assert_unread_flag_rejected(
        ("algebra", "triangular", "--context", "gamma0", "--length-bound", "5"), "--length-bound"
    )


@pytest.mark.parametrize("flag, value", [("--top", "a2"), ("--bottom", "nosuchalgebra"), ("--bimodule", "nosuchfile.json")])
def test_algebra_triangular_on_a_context_rejects_the_gluing_inputs(flag, value):
    # The --context branch never reads --top, --bottom or --bimodule, so even
    # an unknown algebra there was accepted with exit 0.
    _assert_unread_flag_rejected(("algebra", "triangular", "--context", "gamma0", flag, value), flag)
    code, out = cli("algebra", "triangular", "--context", "gamma0", "--top", "a2", "--bottom", "nosuchalgebra")
    assert code == 3 and out["error"]["type"] == "usage"


@pytest.mark.parametrize("flag", ["--algebra", "--e", "--module"])
def test_recollement_verify_on_a_context_rejects_the_idempotent_inputs(flag, gamma0_files, regular_file):
    x, y = gamma0_files
    value = {"--algebra": "a2", "--e": "e1", "--module": regular_file}[flag]
    _assert_unread_flag_rejected(
        ("recollement", "verify", "--statement", "thm_gluing_equivalences", "--context", "gamma0",
         "--x", x, "--y", y, flag, value),
        flag,
    )


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_recollement_verify_without_a_context_rejects_the_triangular_inputs(flag, gamma0_files, regular_file):
    value = gamma0_files[flag == "--y"]
    _assert_unread_flag_rejected(
        ("recollement", "verify", "--statement", "thm_idempotent_ideal", "--algebra", "a2", "--e", "e1",
         "--module", regular_file, flag, value),
        flag,
    )


def test_out_of_range_bounds_are_usage_errors():
    rejected = [
        ("gorenstein", "gp", "--algebra", "a2", "--dim-bound", "-1"),
        ("module", "enumerate", "--algebra", "a2", "--dim-bound", "-1"),
        ("module", "enumerate", "--algebra", "a2", "--length-bound", "-1"),
        ("recollement", "verify", "--statement", "thm_idempotent_ideal", "--algebra", "a2",
         "--e", "e1", "--probe", "-1"),
        ("gorenstein", "report", "--algebra", "a2", "--bound", "0"),
    ]
    for argv in rejected:
        code, out = cli(*argv)
        assert code == 3, argv
        assert out["error"]["type"] == "usage"
        assert "must be at least" in out["error"]["message"]
    code, out = cli("module", "enumerate", "--algebra", "a2", "--dim-bound", "0")
    assert code == 0 and out["count"] == 0


def test_the_suite_names_have_one_source():
    leaves = dict(_leaf_parsers())
    suite = next(a for a in leaves["theorems run"]._actions if "--suite" in a.option_strings)
    assert tuple(suite.choices) == smod.SUITES
    code, out = cli("theorems", "run", "--suite", "bogus")
    assert code == 3 and out["error"]["type"] == "usage"


# ---------------------------------------------------------------------------
# corpus lookups and cold processes
# ---------------------------------------------------------------------------


def test_a_lookup_chain_reads_the_corpus_once_and_hashes_nothing(monkeypatch, tmp_path):
    monkeypatch.delenv("SILTING_FORGE_CACHE", raising=False)
    scans, hashes, compiles = [], [], []
    scan, content_hash, compile_quiver = siomod._scan, siomod.content_hash, siomod.compile_quiver_algebra
    monkeypatch.setattr(siomod, "_scan", lambda d: scans.append(d) or scan(d))
    monkeypatch.setattr(siomod, "content_hash", lambda obj: hashes.append(obj) or content_hash(obj))
    monkeypatch.setattr(siomod, "compile_quiver_algebra", lambda q: compiles.append(q) or compile_quiver(q))

    def reads_and_hashes(*argv):
        scans.clear()
        hashes.clear()
        compiles.clear()
        code, out = cli(*argv)
        assert code == 0, argv
        return len(scans), len(hashes), out

    module = tmp_path / "m.json"
    for algebra, quivers in (("a2xa2", 2), ("a2", 1)):
        module.write_text(dump_json(module_to_json(regular_module(corpus_load(algebra)), algebra)))
        # The module file names the corpus id that resolve_algebra just read,
        # so module_from_json neither reads the corpus nor loads that algebra.
        assert reads_and_hashes("module", "tau", "--algebra", algebra, "--module", str(module))[:2] == (1, 0)
        assert len(compiles) == quivers
    assert reads_and_hashes("silting", "check", "--algebra", "a2", "--module", str(module))[:2] == (1, 0)
    reads, hashed, out = reads_and_hashes("corpus", "list")
    assert (reads, hashed) == (1, len(out["entries"]))


def test_a_module_file_over_another_corpus_algebra_is_still_refused(tmp_path):
    module = tmp_path / "m.json"
    module.write_text(dump_json(module_to_json(regular_module(corpus_load("a2")), "a2")))
    assert cli("silting", "check", "--algebra", "a2", "--module", str(module))[0] == 0
    code, out = cli("silting", "check", "--algebra", "a3rel", "--module", str(module))
    assert code == 3 and "corpus algebra 'a2'" in out["error"]["message"]


def test_a_content_hash_ref_names_the_algebra_it_was_written_over():
    a2_f3 = compile_quiver_algebra(quiver_a2(F3))
    over_f2 = module_to_json(regular_module(corpus_load("a2")))  # refers to the F_2 content hash
    assert over_f2["algebra"] != a2_f3.content_hash()
    with pytest.raises(ValidationError, match="different algebra hash"):
        module_from_json(over_f2, a2_f3)
    assert module_from_json(module_to_json(regular_module(a2_f3)), a2_f3) is regular_module(a2_f3)


def test_a_ref_shaped_like_no_hash_and_naming_no_corpus_entry_is_advisory(a2):
    data = module_to_json(regular_module(a2), "0" * 64)
    assert module_from_json(data, a2) is regular_module(a2)


_SRC = str(Path(silting_forge.__file__).resolve().parent.parent)
_BASE = {"silting_forge", "silting_forge.exactlinalg", "silting_forge.algebra", "silting_forge.modules",
         "silting_forge.io"}
_SILTING = _BASE | {"silting_forge.silting"}
_GORENSTEIN = _SILTING | {"silting_forge.gorenstein"}
_RECOLLEMENT = _GORENSTEIN | {"silting_forge.recollement"}


def _cold(*args: str) -> tuple[int, str, set]:
    """Exit code, stdout and the ``silting_forge`` modules imported by a
    fresh ``python`` process started with ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, check=False
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, {n for n in names if n.split(".")[0] == "silting_forge"}


def test_importing_the_cli_loads_no_command_layer():
    code, _, loaded = _cold("-c", "import silting_forge.cli")
    assert code == 0
    assert loaded == _BASE | {"silting_forge.cli"}


def test_each_command_group_runs_cold_on_the_layers_it_uses(regular_file):
    # polynomials is absent throughout: no CLI command factors a polynomial.
    cases = [
        (("algebra", "derive", "--base", "a2", "--kind", "tensor", "--right", "a2"), _BASE),
        (("algebra", "triangular", "--context", "gamma0"), _RECOLLEMENT),
        (("module", "tau", "--algebra", "a2", "--module", regular_file), _BASE),
        (("silting", "check", "--algebra", "a2", "--module", regular_file), _SILTING),
        (("gorenstein", "report", "--algebra", "dualnum"), _GORENSTEIN),
        (("recollement", "build", "--algebra", "a2", "--e", "e2"), _RECOLLEMENT),
        (("theorems", "run", "--suite", "idempotent"), _RECOLLEMENT | {"silting_forge.suites"}),
        (("corpus", "list"), _BASE),
    ]
    for argv, layers in cases:
        code, stdout, loaded = _cold("-m", "silting_forge.cli", *argv)
        assert (code, stdout) == cli_raw(*argv), argv
        assert code == 0, argv
        assert loaded == layers, argv
