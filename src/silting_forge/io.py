"""JSON file formats and the bundled corpus.

Serialization for algebra definitions, modules, bimodules, and triangular
contexts, plus the read-only bundled corpus and the writable user corpus in
the cache directory (``SILTING_FORGE_CACHE``).  All emitted JSON is canonical:
sorted keys, two-space indent, one trailing newline; content hashes are
sha256 over the compact encoding.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .algebra import (
    Algebra,
    Arrow,
    Bimodule,
    QuiverPresentation,
    TriangularContext,
    ValidationError,
    build_triangular,
    compile_quiver_algebra,
    derive_algebra,
)
from .exactlinalg import FieldSpec, Matrix
from .modules import Module

CORPUS_DIR = Path(__file__).parent / "corpus"


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------


def dump_json(obj) -> str:
    """Canonical report text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def content_hash(obj) -> str:
    """sha256 hex digest of the compact canonical JSON encoding."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def read_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must contain a JSON object")
    return data


# ---------------------------------------------------------------------------
# Fields and matrices
# ---------------------------------------------------------------------------


def field_to_json(f: FieldSpec) -> dict:
    if f.kind == "prime":
        return {"kind": "prime", "p": f.p}
    return {"kind": "rational"}


def field_from_json(data) -> FieldSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("field must be an object with a 'kind'")
    if data["kind"] == "prime":
        p = data.get("p")
        if not isinstance(p, int) or p < 2:
            raise ValidationError("prime field needs an integer characteristic p >= 2")
        return FieldSpec("prime", p)
    if data["kind"] == "rational":
        return FieldSpec("rational")
    raise ValidationError(f"unknown field kind {data['kind']!r}")


def field_from_flag(flag: str) -> FieldSpec:
    """The --field flag: a prime characteristic or 'Q'."""
    if flag in ("Q", "q", "rational"):
        return FieldSpec("rational")
    try:
        p = int(flag)
    except ValueError as exc:
        raise ValidationError(f"--field takes a prime or 'Q', not {flag!r}") from exc
    return FieldSpec("prime", p)


def matrix_to_json(m: Matrix) -> list[list[str]]:
    """Row-major array of scalar strings."""
    f = m.field
    return [[f.to_str(v) for v in row] for row in m.data]


def matrix_from_json(field: FieldSpec, rows, nrows: int, ncols: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise ValidationError(f"matrix must have {nrows} rows")
    data = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ncols:
            raise ValidationError(f"matrix rows must have {ncols} entries")
        data.append([field.coerce(v) for v in row])
    return Matrix(field, data, nrows, ncols)


# ---------------------------------------------------------------------------
# Algebra definition files
# ---------------------------------------------------------------------------


def algebra_from_json(data: dict, *, length_bound: int | None = None) -> Algebra:
    """Compile the algebra-definition format:

    ``{"field": {...}, "quiver": {"vertices": [...], "arrows": [...]},
    "relations": [[{"coeff": "1", "path": ["a","b"]}]], "length_bound": 8}``
    """
    for key in ("field", "quiver"):
        if key not in data:
            raise ValidationError(f"algebra definition is missing {key!r}")
    field = field_from_json(data["field"])
    quiver = data["quiver"]
    if "vertices" not in quiver:
        raise ValidationError("quiver needs a 'vertices' list")
    arrows = []
    for arrow in quiver.get("arrows", []):
        try:
            arrows.append(Arrow(arrow["name"], arrow["source"], arrow["target"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed arrow entry {arrow!r}") from exc
    relations = []
    for rel in data.get("relations", []):
        terms = []
        for term in rel:
            try:
                terms.append((term["coeff"], list(term["path"])))
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"malformed relation term {term!r}") from exc
        relations.append(terms)
    bound = length_bound if length_bound is not None else data.get("length_bound", 8)
    return compile_quiver_algebra(
        QuiverPresentation(list(quiver["vertices"]), arrows, relations, field, bound)
    )


# ---------------------------------------------------------------------------
# Module / bimodule files
# ---------------------------------------------------------------------------


def module_to_json(m: Module, algebra_id: str | None = None) -> dict:
    return {
        "algebra": algebra_id if algebra_id is not None else m.algebra.content_hash(),
        "dim": m.dim,
        "action": {lbl: matrix_to_json(m.rho(lbl)) for lbl in m.algebra.labels},
    }


def module_from_json(data: dict, algebra: Algebra, algebra_ref: str | None = None) -> Module:
    """Module file ``{"algebra": "<id>", "dim": n, "action": {label: matrix}}``.

    The ``algebra`` field is advisory; when it has the shape of a content hash
    (:meth:`Algebra.content_hash`) or names a corpus algebra, it must match
    the supplied algebra.  ``algebra_ref`` is the reference the caller passed
    to :func:`resolve_algebra` for ``algebra``: a file that names that same
    corpus id is not checked by loading the corpus algebra again.
    """
    if "dim" not in data or "action" not in data:
        raise ValidationError("module file needs 'dim' and 'action'")
    ref = data.get("algebra")
    if ref == algebra_ref and isinstance(ref, str) and not os.path.exists(ref):
        ref = None  # the corpus id ``algebra`` was resolved from
    if isinstance(ref, str):
        own = algebra.content_hash()
        if len(ref) == len(own) and set(ref) <= set("0123456789abcdef"):
            if ref != own:
                raise ValidationError("module file references a different algebra hash")
        else:
            files = _corpus_files()
            if ref in files and files[ref][1]["kind"] == "algebra" and _load_entry(files, ref).content_hash() != own:
                raise ValidationError(
                    f"module file is over corpus algebra {ref!r}, not the supplied one"
                )
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 0:
        raise ValidationError("module dim must be a non-negative integer")
    action_data = data["action"]
    if set(action_data) != set(algebra.labels):
        raise ValidationError(
            "module action must give one matrix per algebra basis label"
        )
    action = {
        lbl: matrix_from_json(algebra.field, action_data[lbl], dim, dim)
        for lbl in algebra.labels
    }
    return Module(algebra, dim, action)


def bimodule_from_json(data: dict, left: Algebra, right: Algebra) -> Bimodule:
    """Bimodule file ``{"left": id, "right": id, "dim": n,
    "left_action": {label: matrix}, "right_action": {label: matrix}}``."""
    for key in ("dim", "left_action", "right_action"):
        if key not in data:
            raise ValidationError(f"bimodule file is missing {key!r}")
    dim = data["dim"]
    la = {
        lbl: matrix_from_json(left.field, rows, dim, dim)
        for lbl, rows in data["left_action"].items()
    }
    ra = {
        lbl: matrix_from_json(right.field, rows, dim, dim)
        for lbl, rows in data["right_action"].items()
    }
    return Bimodule(left, right, dim, la, ra)


def context_from_json(data: dict) -> TriangularContext:
    """Self-contained triangular context file: inline top and bottom algebra
    definitions plus the connecting bimodule actions."""
    for key in ("top", "bottom", "bimodule"):
        if key not in data:
            raise ValidationError(f"context file is missing {key!r}")
    top = algebra_from_json(data["top"])
    bottom = algebra_from_json(data["bottom"])
    n = bimodule_from_json(data["bimodule"], top, bottom)
    return build_triangular(top, bottom, n)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """A named, hashed artifact: bundled or user-added."""

    id: str
    kind: str  # algebra | bimodule | module | context
    path: str
    content_hash: str


def _user_corpus_dir() -> Path | None:
    root = os.environ.get("SILTING_FORGE_CACHE")
    if not root:
        return None
    return Path(root) / "corpus"


def _scan(directory: Path) -> list[tuple[Path, dict]]:
    """Every corpus file in ``directory``, read and parsed, in path order."""
    files = []
    if not directory.is_dir():
        return files
    for path in sorted(directory.glob("*.json")):
        data = read_json_file(str(path))
        if "id" not in data or "kind" not in data or "payload" not in data:
            raise ValidationError(f"corpus file {path} needs id, kind, payload")
        files.append((path, data))
    return files


def _corpus_files() -> dict[str, tuple[Path, dict]]:
    """Each corpus id's file and parsed content, from one read of each
    directory; a bundled id hides a user-added one."""
    files = {}
    user_dir = _user_corpus_dir()
    for directory in (CORPUS_DIR,) if user_dir is None else (CORPUS_DIR, user_dir):
        for path, data in _scan(directory):
            files.setdefault(data["id"], (path, data))
    return files


def corpus_entries() -> list[CorpusEntry]:
    """Every corpus entry, with its content hash, sorted by id."""
    return [
        CorpusEntry(
            id=entry_id,
            kind=data["kind"],
            path=str(path),
            content_hash=content_hash(data["payload"]),
        )
        for entry_id, (path, data) in sorted(_corpus_files().items())
    ]


def corpus_load(entry_id: str):
    """Load a corpus entry: an :class:`Algebra` or a triangular context.

    Algebra payloads are either quiver definitions or derivations
    ``{"derive": {"kind": ..., ...}}`` over other corpus ids.
    """
    return _load_entry(_corpus_files(), entry_id)


def _load_entry(files: dict, entry_id: str):
    """:func:`corpus_load` over the files of one directory read."""
    if entry_id not in files:
        raise ValidationError(f"no corpus entry named {entry_id!r}")
    _, data = files[entry_id]
    payload = data["payload"]
    if data["kind"] == "algebra":
        if "derive" in payload:
            recipe = payload["derive"]
            kind = recipe.get("kind")
            if kind == "tensor":
                left = _load_entry(files, recipe["left"])
                right = _load_entry(files, recipe["right"])
                derived, _ = derive_algebra(left, "tensor", b=right)
                return derived
            if kind in ("corner", "quotient_idempotent_ideal"):
                base = _load_entry(files, recipe["base"])
                derived, _ = derive_algebra(base, kind, e=list(recipe["e"]))
                return derived
            if kind == "opposite":
                base = _load_entry(files, recipe["base"])
                derived, _ = derive_algebra(base, "opposite")
                return derived
            raise ValidationError(f"unknown derivation kind {kind!r}")
        return algebra_from_json(payload)
    if data["kind"] == "context":
        return context_from_json(payload)
    raise ValidationError(
        f"corpus entry {entry_id!r} has kind {data['kind']!r}; load it with the "
        "matching algebra supplied"
    )


def corpus_add(source_path: str, entry_id: str, kind: str) -> CorpusEntry:
    """Validate and copy an artifact into the user corpus (cache directory)."""
    if kind not in ("algebra", "bimodule", "module", "context"):
        raise ValidationError(f"unknown corpus kind {kind!r}")
    user_dir = _user_corpus_dir()
    if user_dir is None:
        raise ValidationError(
            "corpus add needs SILTING_FORGE_CACHE to point at a writable directory"
        )
    payload = read_json_file(source_path)
    if "payload" in payload and "id" in payload:
        payload = payload["payload"]
    if kind == "algebra" and "derive" not in payload:
        algebra_from_json(payload)
    if kind == "context":
        context_from_json(payload)
    if entry_id in _corpus_files():
        raise ValidationError(f"corpus id {entry_id!r} already exists")
    user_dir.mkdir(parents=True, exist_ok=True)
    target = user_dir / f"{entry_id}.json"
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(dump_json({"id": entry_id, "kind": kind, "payload": payload}))
    return CorpusEntry(
        id=entry_id, kind=kind, path=str(target), content_hash=content_hash(payload)
    )


def resolve_algebra(ref: str, *, length_bound: int | None = None) -> Algebra:
    """An algebra from a corpus id or a definition file path."""
    if os.path.exists(ref):
        data = read_json_file(ref)
        if "payload" in data:
            data = data["payload"]
        return algebra_from_json(data, length_bound=length_bound)
    files = _corpus_files()
    if ref in files:
        loaded = _load_entry(files, ref)
        if not isinstance(loaded, Algebra):
            raise ValidationError(f"corpus entry {ref!r} is not an algebra")
        return loaded
    raise ValidationError(f"{ref!r} is neither a file nor a corpus algebra id")


def resolve_context(ref: str) -> TriangularContext:
    """A triangular context from a corpus id or a context file path."""
    if os.path.exists(ref):
        data = read_json_file(ref)
        if "payload" in data:
            data = data["payload"]
        return context_from_json(data)
    files = _corpus_files()
    if ref in files:
        loaded = _load_entry(files, ref)
        if not isinstance(loaded, TriangularContext):
            raise ValidationError(f"corpus entry {ref!r} is not a context")
        return loaded
    raise ValidationError(f"{ref!r} is neither a file nor a corpus context id")
