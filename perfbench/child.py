"""One fresh interpreter of the benchmark, started by ``run.py``.

Roles:

``setup``   import the package and build a workload's inputs from the seed;
            report how long that took.
``pass``    set up, then run every operation once, checking each answer
            (``--trace 1`` records spans while doing so).
``cli``     the traced stand-in for ``python -m silting_forge.cli``: it loads
            the tracer, runs ``silting_forge.cli.run`` on the arguments after
            ``--`` and exits with its code.

Every role writes one JSON object to ``--out``; standard output belongs to the
CLI in the ``cli`` role and is unused otherwise.  Untraced children time with
the reference clock that ``hook/sitecustomize.py`` started (see
``hook/refclock.py``); traced children time with ``time.perf_counter``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _import_package() -> float:
    """Import the whole package (the CLI module imports every layer)."""
    t = time.perf_counter()
    import silting_forge.cli  # noqa: F401

    return time.perf_counter() - t


def _tracer():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _clock():
    """Seconds since the interpreter started: reference seconds when the
    reference clock runs, else wall seconds since this module loaded."""
    import refclock

    if refclock.CLOCK is not None:
        return refclock.CLOCK.now
    return lambda: time.perf_counter() - T0


def _run_ops(ops, clock) -> list:
    results = []
    for kind, run, check in ops:
        t = clock()
        try:
            answer = run()
        except Exception:  # one failed operation must not end the pass
            results.append({"kind": kind, "seconds": clock() - t,
                            "answer": None, "error": traceback.format_exc(limit=3)})
            continue
        seconds = clock() - t
        results.append({"kind": kind, "seconds": seconds, "answer": answer, "error": check(answer)})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "pass", "cli"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    argv = sys.argv[1:] if argv is None else argv
    cli_args = []
    if "--" in argv:
        split = argv.index("--")
        argv, cli_args = argv[:split], argv[split + 1:]
    args = parser.parse_args(argv)

    import_s = _import_package()
    # Installed before ``workloads`` copies the package's functions into its
    # own namespace, so set-up and top-level calls are traced too.
    tracer = _tracer() if args.trace or args.role == "cli" else None
    if args.role == "cli":
        import silting_forge.cli

        code = silting_forge.cli.run(cli_args)
        sys.stdout.flush()
        args.out.write_text(json.dumps({"import_s": import_s, "trace": tracer.summary()}))
        return code

    import workloads

    clock = _clock()
    ops = workloads.setup(args.workload, args.seed, args.inputs)
    out = {"setup_s": clock(), "import_s": import_s}
    if args.role == "pass":
        out["ops"] = _run_ops(ops, clock)
    if tracer is not None:
        out["trace"] = tracer.summary()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
