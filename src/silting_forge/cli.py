"""Command-line entry point.

Subcommand tree::

    algebra build|derive|triangular
    module validate|hom|tau|decompose|enumerate
    silting check|enumerate|tensor
    gorenstein report|gp|check
    recollement build|apply|verify
    theorems run --suite {idempotent|tensor|gluing|all}
    corpus list|add

Every invocation prints one canonical JSON document on standard output and
exits 0 on PASS/positive verdicts, 1 on FAIL/negative verdicts, 2 on
undecided outcomes, and 3 on usage errors or malformed inputs.  Output is
byte-identical across runs for fixed inputs.  A subcommand accepts
only the shared flags (``_SHARED_FLAGS``) that it reads, and a flag that the
chosen branch of its handler ignores is a usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import SUITES
from .algebra import (
    DomainError,
    ValidationError,
    build_triangular,
    derive_algebra,
)
from .io import (
    algebra_from_json,
    bimodule_from_json,
    corpus_add,
    corpus_entries,
    dump_json,
    field_from_flag,
    field_to_json,
    matrix_from_json,
    module_from_json,
    module_to_json,
    read_json_file,
    resolve_algebra,
    resolve_context,
)
from .modules import (
    Module,
    ModuleMap,
    Presentation,
    UndecidedError,
    ar_translate,
    decompose,
    enumerate_indecomposables,
    hom_space,
    is_isomorphic,
)

# The silting, gorenstein, recollement and suites layers are imported by the
# handlers that run them, so a one-query process compiles only what it uses.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 3."""

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


#: Flags that several subcommands share, with their ``add_argument`` keywords.
_SHARED_FLAGS = {
    "--field": {"help": "ground field: a prime or Q"},
    "--dim-bound": {"type": _at_least(0)},
    "--length-bound": {"type": _at_least(0)},
}


def _leaf(group, name, *flags, **defaults):
    """A subcommand taking the named shared flags and no other, with ``defaults``."""
    p = group.add_parser(name)
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    p.set_defaults(**defaults)
    return p


def _build_parser() -> _Parser:
    root = _Parser(prog="silting-forge", add_help=True)
    sub = root.add_subparsers(dest="group")

    algebra = sub.add_parser("algebra").add_subparsers(dest="command")
    p = _leaf(algebra, "build", "--field", "--length-bound")
    p.add_argument("--quiver", required=True, help="algebra definition file")
    p = _leaf(algebra, "derive", "--length-bound")
    p.add_argument("--base", required=True, help="corpus id or definition file")
    p.add_argument(
        "--kind",
        required=True,
        choices=["opposite", "corner", "quotient", "quotient_idempotent_ideal", "tensor"],
    )
    p.add_argument("--e", default=None, help="comma-separated idempotent labels")
    p.add_argument("--right", default=None, help="second algebra for tensor")
    p = _leaf(algebra, "triangular", "--length-bound")
    p.add_argument("--context", default=None, help="corpus id or context file")
    p.add_argument("--top", default=None)
    p.add_argument("--bottom", default=None)
    p.add_argument("--bimodule", default=None, help="bimodule file")

    module = sub.add_parser("module").add_subparsers(dest="command")
    p = _leaf(module, "validate", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p = _leaf(module, "hom", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p = _leaf(module, "tau", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p = _leaf(module, "decompose", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p = _leaf(module, "enumerate", "--length-bound", "--dim-bound", dim_bound=3)
    p.add_argument("--algebra", required=True)

    silting = sub.add_parser("silting").add_subparsers(dest="command")
    p = _leaf(silting, "check", "--length-bound", "--dim-bound", dim_bound=3)
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--presentation", default="auto", help="'auto' or a map file")
    p = _leaf(silting, "enumerate", "--length-bound", "--dim-bound", dim_bound=3)
    p.add_argument("--algebra", required=True)
    p = _leaf(silting, "tensor", "--length-bound", "--dim-bound", dim_bound=2)
    p.add_argument("--left", required=True)
    p.add_argument("--left-module", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-module", required=True)
    p.add_argument("--left-presentation", default="auto")
    p.add_argument("--right-presentation", default="auto")

    gorenstein = sub.add_parser("gorenstein").add_subparsers(dest="command")
    p = _leaf(gorenstein, "report", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--bound", type=_at_least(1), default=10)
    # No parser default for --dim-bound: the handler tells "given" from
    # "defaulted", because the --module branch reads no bound.
    p = _leaf(gorenstein, "gp", "--length-bound", "--dim-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", default=None)
    p = _leaf(gorenstein, "check", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--presentation", default="auto")

    recollement = sub.add_parser("recollement").add_subparsers(dest="command")
    p = _leaf(recollement, "build", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--e", required=True, help="comma-separated idempotent labels")
    p = _leaf(recollement, "apply", "--length-bound")
    p.add_argument("--algebra", required=True)
    p.add_argument("--e", required=True)
    p.add_argument("--functor", required=True, choices=["i", "q", "p", "e", "l", "r"])
    p.add_argument("--module", required=True)
    p = _leaf(recollement, "verify", "--length-bound")
    p.add_argument("--statement", required=True)
    p.add_argument("--algebra", default=None)
    p.add_argument("--e", default=None)
    p.add_argument("--context", default=None)
    p.add_argument("--module", default=None, help="input module file (idempotent statements)")
    p.add_argument("--x", default=None, help="top module file (triangular statements)")
    p.add_argument("--y", default=None, help="bottom module file (triangular statements)")
    p.add_argument("--probe", type=_at_least(0), default=None)

    theorems = sub.add_parser("theorems").add_subparsers(dest="command")
    p = _leaf(theorems, "run")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--context", default=None)

    corpus = sub.add_parser("corpus").add_subparsers(dest="command")
    _leaf(corpus, "list")
    p = _leaf(corpus, "add")
    p.add_argument("--file", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--kind", required=True)

    return root


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _algebra_summary(alg) -> dict:
    return {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "content_hash": alg.content_hash(),
    }


def _load_module(args_algebra: str, module_path: str, *, length_bound=None):
    alg = resolve_algebra(args_algebra, length_bound=length_bound)
    data = read_json_file(module_path)
    return alg, module_from_json(data, alg, args_algebra)


def _load_presentation(flag: str, t: Module, algebra_ref: str):
    """'auto' or a two-term map file over the same algebra.

    A map file supplies source and target modules, which must be projective,
    and the matrix; the cokernel must be isomorphic to the module being
    checked.  ``algebra_ref`` is the ``--algebra`` value ``t`` is over."""
    if flag.lower() == "auto":
        return "AUTO"
    from .silting import presentation_from_map

    alg = t.algebra
    data = read_json_file(flag)
    for key in ("source", "target", "matrix"):
        if key not in data:
            raise ValidationError("presentation file needs source, target, matrix")
    src = module_from_json(data["source"], alg, algebra_ref)
    tgt = module_from_json(data["target"], alg, algebra_ref)
    mat = matrix_from_json(alg.field, data["matrix"], tgt.dim, src.dim)
    fmap = ModuleMap(src, tgt, mat)
    pres = presentation_from_map(fmap)
    iso = is_isomorphic(pres.cokernel, t)
    if iso is None:
        raise ValidationError("supplied presentation does not present the module")
    composed = ModuleMap(tgt, t, iso.matrix.mul(pres.coker_map.matrix))
    return Presentation(
        kind="projective",
        map=fmap,
        cokernel=t,
        coker_map=composed,
        certificates={"source": "file"},
    )


def _reject_unread(value, flag: str, branch: str) -> None:
    """A usage error when ``flag`` was given (``value`` is not None) on a
    handler branch that does not read it."""
    if value is not None:
        raise UsageError(f"{flag} has no effect with {branch}")


def _exit_from_verdict(verdict: str) -> int:
    if verdict in ("silting", "gorenstein_silting", "PASS", "gorenstein"):
        return 0
    if verdict in ("undecided", "UNDECIDED", "not_within_bound"):
        return 2
    return 1


def _idempotent_labels(flag: str) -> tuple:
    labels = tuple(part.strip() for part in flag.split(",") if part.strip())
    if not labels:
        raise ValidationError("--e needs at least one idempotent label")
    return labels


# ---------------------------------------------------------------------------
# Handlers (each returns payload, exit code)
# ---------------------------------------------------------------------------


def _handle_algebra(args):
    if args.command == "build":
        data = read_json_file(args.quiver)
        if "payload" in data:
            data = data["payload"]
        if args.field is not None:
            data = dict(data)
            data["field"] = field_to_json(field_from_flag(args.field))
        alg = algebra_from_json(data, length_bound=args.length_bound)
        return _algebra_summary(alg), 0
    if args.command == "derive":
        base = resolve_algebra(args.base, length_bound=args.length_bound)
        kind = args.kind
        if kind == "quotient":
            kind = "quotient_idempotent_ideal"
        kwargs = {}
        if kind in ("corner", "quotient_idempotent_ideal"):
            if not args.e:
                raise ValidationError(f"derivation {kind!r} needs --e")
            kwargs["e"] = list(_idempotent_labels(args.e))
        if kind == "tensor":
            if not args.right:
                raise ValidationError("tensor derivation needs --right")
            kwargs["b"] = resolve_algebra(args.right, length_bound=args.length_bound)
        derived, _ = derive_algebra(base, kind, **kwargs)
        out = _algebra_summary(derived)
        out["derived"] = {"kind": kind, "base_hash": base.content_hash()}
        return out, 0
    if args.command == "triangular":
        from .recollement import triangular_hypotheses

        if args.context:
            for value, flag in [(args.length_bound, "--length-bound"), (args.top, "--top"),
                                (args.bottom, "--bottom"), (args.bimodule, "--bimodule")]:
                _reject_unread(value, flag, "--context")
            tctx = resolve_context(args.context)
        else:
            if not (args.top and args.bottom and args.bimodule):
                raise ValidationError(
                    "triangular needs --context or all of --top/--bottom/--bimodule"
                )
            top = resolve_algebra(args.top, length_bound=args.length_bound)
            bottom = resolve_algebra(args.bottom, length_bound=args.length_bound)
            n = bimodule_from_json(read_json_file(args.bimodule), top, bottom)
            tctx = build_triangular(top, bottom, n)
        out = {
            "top": _algebra_summary(tctx.a),
            "bottom": _algebra_summary(tctx.b),
            "bimodule_dim": tctx.n.dim,
            "triangular": _algebra_summary(tctx.gamma),
            "hypotheses": triangular_hypotheses(tctx),
        }
        return out, 0
    raise UsageError("algebra needs a subcommand: build, derive, triangular")


def _handle_module(args):
    if args.command == "validate":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        data = read_json_file(args.module)
        try:
            m = module_from_json(data, alg, args.algebra)
        except ValidationError as exc:
            return {"valid": False, "reason": str(exc)}, 1
        return {
            "valid": True,
            "dim": m.dim,
            "dimension_vector": m.dimension_vector(),
        }, 0
    if args.command == "hom":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        src = module_from_json(read_json_file(args.source), alg, args.algebra)
        tgt = module_from_json(read_json_file(args.target), alg, args.algebra)
        basis = hom_space(src, tgt)
        return {"dim": len(basis)}, 0
    if args.command == "tau":
        alg, m = _load_module(args.algebra, args.module, length_bound=args.length_bound)
        tau = ar_translate(m)
        return {
            "module": module_to_json(m),
            "translate": module_to_json(tau),
            "translate_dimension_vector": tau.dimension_vector(),
        }, 0
    if args.command == "decompose":
        alg, m = _load_module(args.algebra, args.module, length_bound=args.length_bound)
        parts = decompose(m)
        return {
            "parts": [
                {"dim": p.dim, "dimension_vector": p.dimension_vector()}
                for p, _, _ in parts
            ]
        }, 0
    if args.command == "enumerate":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        pool = enumerate_indecomposables(alg, args.dim_bound)
        return {
            "dim_bound": args.dim_bound,
            "count": len(pool),
            "dimension_vectors": [m.dimension_vector() for m in pool],
        }, 0
    raise UsageError("module needs a subcommand: validate, hom, tau, decompose, enumerate")


def _handle_silting(args):
    from .silting import enumerate_silting, silting_check, tensor_silting

    if args.command == "check":
        alg, t = _load_module(args.algebra, args.module, length_bound=args.length_bound)
        sigma = _load_presentation(args.presentation, t, args.algebra)
        cert = silting_check(t, sigma, dim_bound=args.dim_bound)
        return cert.to_json(), _exit_from_verdict(cert.verdict)
    if args.command == "enumerate":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        certs = enumerate_silting(alg, args.dim_bound)
        return {
            "dim_bound": args.dim_bound,
            "count": len(certs),
            "certificates": [c.to_json() for c in certs],
        }, 0
    if args.command == "tensor":
        left_alg, t = _load_module(args.left, args.left_module, length_bound=args.length_bound)
        right_alg, s = _load_module(args.right, args.right_module, length_bound=args.length_bound)
        sigma = _load_presentation(args.left_presentation, t, args.left)
        eta = _load_presentation(args.right_presentation, s, args.right)
        ts, pres, cert, report = tensor_silting(t, sigma, s, eta, dim_bound=args.dim_bound)
        out = {"certificate": cert.to_json(), "report": report}
        return out, _exit_from_verdict(cert.verdict)
    raise UsageError("silting needs a subcommand: check, enumerate, tensor")


def _handle_gorenstein(args):
    from . import gorenstein as gmod

    if args.command == "report":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        report = gmod.gorenstein_report(alg, bound=args.bound)
        return report.to_json(), _exit_from_verdict(report.verdict)
    if args.command == "gp":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        if args.module is None:
            dim_bound = 4 if args.dim_bound is None else args.dim_bound
            gp = gmod.gp_classification(alg, dim_bound=dim_bound)
            return {
                "dim_bound": dim_bound,
                "count": len(gp.modules),
                "dimension_vectors": [m.dimension_vector() for m in gp.modules],
                "notes": list(gp.notes),
            }, 0
        _reject_unread(args.dim_bound, "--dim-bound", "--module")
        m = module_from_json(read_json_file(args.module), alg, args.algebra)
        cert = gmod.is_gorenstein_projective(m)
        return cert.to_json(), (0 if cert.holds else 1)
    if args.command == "check":
        alg, t = _load_module(args.algebra, args.module, length_bound=args.length_bound)
        theta = args.presentation if args.presentation.lower() == "auto" else None
        if theta is None:
            raise ValidationError(
                "gorenstein check supports --presentation auto; supplied "
                "relative presentations are a library-level feature"
            )
        cert = gmod.gorenstein_silting_check(t, "AUTO")
        return cert.to_json(), _exit_from_verdict(cert.verdict)
    raise UsageError("gorenstein needs a subcommand: report, gp, check")


def _handle_recollement(args):
    from . import recollement as rmod

    if args.command == "build":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        ctx = rmod.idempotent_recollement(alg, _idempotent_labels(args.e))
        return ctx.to_json(), 0
    if args.command == "apply":
        alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
        ctx = rmod.idempotent_recollement(alg, _idempotent_labels(args.e))
        which = args.functor
        if which in ("i",):
            if ctx.quotient is None:
                raise ValidationError("quotient layer is degenerate")
            source_alg = ctx.quotient
        elif which in ("l", "r"):
            source_alg = ctx.corner
        else:
            source_alg = ctx.middle
        m = module_from_json(read_json_file(args.module), source_alg, args.algebra if source_alg is alg else None)
        image = rmod.apply_functor(ctx, which, m)
        return {
            "functor": which,
            "input_dim": m.dim,
            "image": module_to_json(image),
            "image_dimension_vector": image.dimension_vector(),
        }, 0
    if args.command == "verify":
        statement = args.statement
        if args.context:
            for value, flag in [(args.length_bound, "--length-bound"), (args.algebra, "--algebra"),
                                (args.e, "--e"), (args.module, "--module")]:
                _reject_unread(value, flag, "--context")
            tctx = resolve_context(args.context)
            inputs = {}
            if args.x is None or args.y is None:
                raise ValidationError("triangular statements need --x and --y module files")
            inputs["x"] = module_from_json(read_json_file(args.x), tctx.a)
            inputs["y"] = module_from_json(read_json_file(args.y), tctx.b)
            report = rmod.verify_transfer(tctx, statement, inputs, args.probe)
        else:
            for value, flag in [(args.x, "--x"), (args.y, "--y"), (args.probe, "--probe")]:
                _reject_unread(value, flag, "idempotent statements")
            if not (args.algebra and args.e):
                raise ValidationError(
                    "idempotent statements need --algebra and --e; triangular ones --context"
                )
            alg = resolve_algebra(args.algebra, length_bound=args.length_bound)
            ctx = rmod.idempotent_recollement(alg, _idempotent_labels(args.e))
            if args.module is None:
                raise ValidationError("idempotent statements need --module")
            if statement == "lemma_q_transfer":
                t = module_from_json(read_json_file(args.module), ctx.middle, args.algebra)
            else:
                if ctx.quotient is None:
                    raise ValidationError("quotient layer is degenerate")
                t = module_from_json(read_json_file(args.module), ctx.quotient)
            report = rmod.verify_transfer(ctx, statement, {"t": t})
        return report.to_json(), _exit_from_verdict(report.verdict)
    raise UsageError("recollement needs a subcommand: build, apply, verify")


def _handle_theorems(args):
    if args.command == "run":
        from .suites import run_suite

        report = run_suite(args.suite, args.context)
        return report, _exit_from_verdict(report["verdict"])
    raise UsageError("theorems needs the run subcommand")


def _handle_corpus(args):
    if args.command == "list":
        return {
            "entries": [
                {
                    "id": e.id,
                    "kind": e.kind,
                    "path": e.path,
                    "content_hash": e.content_hash,
                }
                for e in corpus_entries()
            ]
        }, 0
    if args.command == "add":
        entry = corpus_add(args.file, args.id, args.kind)
        return {
            "added": {
                "id": entry.id,
                "kind": entry.kind,
                "path": entry.path,
                "content_hash": entry.content_hash,
            }
        }, 0
    raise UsageError("corpus needs a subcommand: list, add")


_GROUPS = {
    "algebra": _handle_algebra,
    "module": _handle_module,
    "silting": _handle_silting,
    "gorenstein": _handle_gorenstein,
    "recollement": _handle_recollement,
    "theorems": _handle_theorems,
    "corpus": _handle_corpus,
}


def run(argv=None) -> int:
    """Parse, dispatch, print one JSON document, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.group is None:
            raise UsageError("a subcommand is required")
        if getattr(args, "command", None) is None:
            raise UsageError(f"{args.group} needs a subcommand")
        payload, code = _GROUPS[args.group](args)
    except UsageError as exc:
        sys.stdout.write(dump_json({"error": {"type": "usage", "message": str(exc)}}))
        return 3
    except (ValidationError, DomainError) as exc:
        sys.stdout.write(
            dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        )
        return 3
    except UndecidedError as exc:
        sys.stdout.write(
            dump_json(
                {
                    "verdict": "undecided",
                    "error": {"type": "UndecidedError", "message": str(exc)},
                }
            )
        )
        return 2
    sys.stdout.write(dump_json(payload))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
