"""The fixed script of the ``cli`` workload and the oracle of each command.

Standard library only: the runner imports it.  Each entry is ``(kind, argv,
check)``; ``check(output, code)`` gets the parsed standard output and the exit
code and returns ``None`` or the reason the answer is wrong.  Exit codes of 3
or more (usage or input errors) are failures for every command before its
check runs.  The module files have fixed isomorphism types (see
``CLI_PROBES`` in ``workloads.py``), so every answer is known.
"""

from __future__ import annotations


def _expect(code, **fields):
    def check(out, got_code):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        for key, value in fields.items():
            if out.get(key) != value:
                return f"{key} is {out.get(key)!r}, expected {value!r}"
        return None

    return check


def _check_decompose(summand_dims):
    """The CLI lists each isomorphism class once, without its multiplicity;
    the modules of the script have no repeated summand."""

    def check(out, code):
        parts = out.get("parts", [])
        if code != 0 or any(p["dim"] != sum(p["dimension_vector"].values()) for p in parts):
            return f"exit code {code} with parts {parts!r}"
        dims = sorted(p["dim"] for p in parts)
        return None if dims == summand_dims else f"summand dims {dims}, expected {summand_dims}"

    return check


def _check_tau(module_dim, translate_dim):
    def check(out, code):
        got = (code, out["module"]["dim"], out["translate"]["dim"])
        if got != (0, module_dim, translate_dim):
            return f"(exit code, dim M, dim tau M) is {got}, expected {(0, module_dim, translate_dim)}"
        if sum(out["translate_dimension_vector"].values()) != translate_dim:
            return "translate dimension vector does not add up to its dimension"
        return None

    return check


def script(inputs: str) -> list:
    """The commands, with module files read from the ``inputs`` directory."""
    a2_regular = f"{inputs}/a2_regular.json"
    a3rel_module = f"{inputs}/a3rel_module.json"
    a2xa2_module = f"{inputs}/a2xa2_module.json"
    quotient_module = f"{inputs}/a3rel_quotient_module.json"
    return [
        ("silting.enumerate.a2", ["silting", "enumerate", "--algebra", "a2", "--dim-bound", "3"],
         _expect(0, count=5)),
        ("silting.enumerate.a3rel", ["silting", "enumerate", "--algebra", "a3rel", "--dim-bound", "2"],
         _expect(0, count=12)),
        ("silting.check.a2-regular", ["silting", "check", "--algebra", "a2", "--module", a2_regular],
         _expect(0, verdict="silting")),
        ("silting.check.a3rel", ["silting", "check", "--algebra", "a3rel", "--module", a3rel_module],
         _expect(1, verdict="not_silting")),
        ("module.decompose.a3rel", ["module", "decompose", "--algebra", "a3rel", "--module", a3rel_module],
         _check_decompose([1, 1, 2])),
        ("module.decompose.a2xa2", ["module", "decompose", "--algebra", "a2xa2", "--module", a2xa2_module],
         _check_decompose([1, 1, 3])),
        ("module.tau.a3rel", ["module", "tau", "--algebra", "a3rel", "--module", a3rel_module],
         _check_tau(4, 1)),
        ("module.tau.a2xa2", ["module", "tau", "--algebra", "a2xa2", "--module", a2xa2_module],
         _check_tau(5, 3)),
        ("gorenstein.report.dualnum", ["gorenstein", "report", "--algebra", "dualnum"],
         _expect(0, verdict="gorenstein")),
        ("gorenstein.gp.dualnum", ["gorenstein", "gp", "--algebra", "dualnum", "--dim-bound", "3"],
         _expect(0, count=2)),
        ("recollement.verify.a3rel-e2",
         ["recollement", "verify", "--statement", "thm_idempotent_ideal", "--algebra", "a3rel",
          "--e", "e2", "--module", quotient_module],
         _expect(0, verdict="PASS")),
        ("algebra.derive.a2xa2", ["algebra", "derive", "--base", "a2", "--kind", "tensor", "--right", "a2"],
         _expect(0, dim=9)),
    ]
