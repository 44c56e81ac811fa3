"""In-memory span tracer that wraps ``silting_forge`` functions from outside.

A span is (name, parent span, start, end), stored in flat arrays until the
traced pass ends; :meth:`Tracer.summary` then folds them into per-name call
counts and self times.  Self time is a span's duration minus the durations of
its direct children: spans nest strictly because the program is single
threaded, so the direct children never overlap.

Nothing under ``src/`` knows about the tracer.  Functions are patched in every
``silting_forge.*`` namespace that holds them, because ``from .modules import
hom_space`` copies the binding into the importing module; methods are patched
on their class.  Scalar ``FieldSpec`` operations stay untraced: they run
millions of times per pass and would swamp the numbers they are meant to
explain.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter


def _check_flag(args, kwargs):
    """``ModuleMap(source, target, matrix, check=True)``: trace checked maps only."""
    return kwargs.get("check", args[4] if len(args) > 4 else True)


def _mac(args, kwargs):
    a, b = args[0], args[1]
    return a.nrows * a.ncols * b.ncols


def _cells(args, kwargs):
    m = args[0]
    return m.nrows * m.ncols


# (module, attribute, span name, options).  Options: ``when`` decides per call
# whether it is traced; ``work`` maps a counter suffix to a count computed from
# the arguments; ``undecided`` counts calls that raise UndecidedError;
# ``results`` sums len(result).
TARGETS = [
    ("silting_forge.exactlinalg", "Matrix.mul", "exactlinalg.mul", {"work": {"mac": _mac}}),
    ("silting_forge.exactlinalg", "rref", "exactlinalg.rref", {"work": {"cells": _cells}}),
    ("silting_forge.exactlinalg", "solve", "exactlinalg.solve", {}),
    ("silting_forge.exactlinalg", "invert", "exactlinalg.invert", {}),
    ("silting_forge.algebra", "Algebra.content_hash", "algebra.content_hash", {}),
    ("silting_forge.algebra", "compile_quiver_algebra", "algebra.compile_quiver_algebra", {}),
    ("silting_forge.algebra", "derive_algebra", "algebra.derive_algebra", {}),
    ("silting_forge.algebra", "build_triangular", "algebra.build_triangular", {}),
    ("silting_forge.modules", "Module.__init__", "modules.Module.init", {}),
    ("silting_forge.modules", "ModuleMap.__init__", "modules.ModuleMap.checked", {"when": _check_flag}),
    ("silting_forge.modules", "regular_module", "modules.regular_module", {}),
    ("silting_forge.modules", "hom_space", "modules.hom_space", {}),
    ("silting_forge.modules", "projective_cover", "modules.projective_cover", {}),
    ("silting_forge.modules", "ar_translate", "modules.ar_translate", {}),
    ("silting_forge.modules", "enumerate_indecomposables", "modules.enumerate_indecomposables", {}),
    ("silting_forge.modules", "is_isomorphic", "modules.is_isomorphic", {"undecided": True}),
    ("silting_forge.modules", "decompose", "modules.decompose", {"undecided": True}),
    ("silting_forge.silting", "silting_check", "silting.silting_check", {}),
    ("silting_forge.silting", "enumerate_silting", "silting.enumerate_silting", {"results": True}),
    ("silting_forge.silting", "tensor_silting", "silting.tensor_silting", {}),
    ("silting_forge.silting", "gen_contains", "silting.gen_contains", {}),
    ("silting_forge.silting", "d_sigma_contains", "silting.d_sigma_contains", {}),
    ("silting_forge.gorenstein", "gorenstein_report", "gorenstein.gorenstein_report", {}),
    ("silting_forge.gorenstein", "gp_classification", "gorenstein.gp_classification", {}),
    ("silting_forge.gorenstein", "gorenstein_silting_check", "gorenstein.gorenstein_silting_check", {}),
    ("silting_forge.gorenstein", "left_approximation_sequence", "gorenstein.left_approximation_sequence", {}),
    ("silting_forge.recollement", "verify_transfer", "recollement.verify_transfer", {}),
    ("silting_forge.recollement", "idempotent_recollement", "recollement.idempotent_recollement", {}),
    ("silting_forge.recollement", "run_adjunction_battery", "recollement.run_adjunction_battery", {}),
    ("silting_forge.io", "corpus_load", "io.corpus_load", {}),
    ("silting_forge.cli", "run", "cli.run", {}),
]


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _wrap(self, name: str, fn, when=None, work=None, undecided=None, results=False):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent, start, end = self.span_name, self.span_parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            if work:
                for suffix, measure in work.items():
                    counters[f"{name}.{suffix}"] += measure(args, kwargs)
            sid = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except undecided:
                counters[f"{name}.undecided"] += 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if results:
                counters[f"{name}.results"] += len(result)
            return result

        return traced

    def install(self):
        """Patch every target; the modules must already be imported."""
        from silting_forge.modules import UndecidedError

        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "silting_forge" or key.startswith("silting_forge.")
        ]
        for module_name, attr, name, opts in TARGETS:
            owner = importlib.import_module(module_name)
            undecided = UndecidedError if opts.get("undecided") else ()
            kwargs = {
                "when": opts.get("when"),
                "work": opts.get("work"),
                "undecided": undecided,
                "results": opts.get("results", False),
            }
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, cls.__dict__[method], **kwargs))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, **kwargs)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per-name ``calls`` and ``self_s``, the counters, and the
        span-tree count of ``silting_check`` calls made by ``enumerate_silting``."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        per_name = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        check_id = self.names.index("silting.silting_check")
        enum_id = self.names.index("silting.enumerate_silting")
        checks_in_enumeration = 0
        for i in range(n):
            entry = per_name[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            if self.span_name[i] == check_id and parent[i] >= 0 and self.span_name[parent[i]] == enum_id:
                checks_in_enumeration += 1
        return {
            "spans": n,
            "per_name": per_name,
            "counters": dict(self.counters),
            "checks_in_enumeration": checks_in_enumeration,
        }
