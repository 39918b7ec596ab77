"""Serialization: structured-text documents and CSV traces.

Documents are JSON with deterministic key order and floats printed with
17 significant digits so that every emitted number re-parses to the same
double.  All schemas carry a schema_version field.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .hamiltonian import GEOMETRY_KINDS, Geometry, HamiltonianSpec, LocalTerm, SiteSpace

SCHEMA_VERSION = 1


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValidationError(f"cannot serialize non-finite float {value!r}")
    return format(float(value), ".17g")


def _encode(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _encode(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _encode(value, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


_TYPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string", dict: "an object",
               list: "a list"}

# schema_version may be left out; when present it is the integer 1
VERSION_ROW = (int, SCHEMA_VERSION, SCHEMA_VERSION, SCHEMA_VERSION)


def check_fields(doc, schema: dict, prefix: str = "", n: int | None = None) -> dict:
    """The object `doc` checked against `schema`, with the defaults of absent keys filled in.

    A row is (type,) or (type, ..., low, high) for a required key, else
    (type, default, low, high), the bounds optional; a str row takes its
    choices as low, and a list row with bounds holds at least one integer,
    each within them.  A default or bound given as a function takes n, the
    number of sites; None leaves it unset or open.  Types are exact (a bool
    is no integer, nor is 5.7), and unknown keys are refused.  Each fault is
    a ValidationError naming the field prefix + key.
    """
    if type(doc) is not dict:
        where = f"field '{prefix[:-1]}'" if prefix else "the top level"
        raise ValidationError(f"{where}: expected an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ValidationError(f"field '{prefix}{unknown[0]}': unknown key; "
                              f"expected one of {sorted(schema)}")
    resolved = {}
    for key, (kind, *rest) in schema.items():
        default, low, high = [*(r(n) if callable(r) else r for r in rest or [...]), None, None][:3]
        if key not in doc and default is ...:
            raise ValidationError(f"field '{prefix}{key}': missing required field")
        value = resolved[key] = doc.get(key, default)
        if key in doc and not _admits(kind, low, high, value):
            raise ValidationError(f"field '{prefix}{key}': expected "
                                  f"{_expected(kind, low, high)}, got {value!r}")
    return resolved


def _admits(kind: type, low, high, value) -> bool:
    if type(value) is not kind:
        return False
    if low is None:
        return True
    if kind is str:
        return value in low
    if kind is list:
        return bool(value) and all(_admits(int, low, high, m) for m in value)
    return value >= low and (high is None or value <= high)


def _expected(kind: type, low, high) -> str:
    if low is None:
        return _TYPE_NAMES[kind]
    if kind is str:
        return f"one of {list(low)}"
    what = "a non-empty list of integers" if kind is list else _TYPE_NAMES[kind]
    return what + (f" >= {low}" if high is None else f" in [{low}, {high}]")


def dumps_document(doc: dict) -> str:
    out: list[str] = []
    _encode(doc, out)
    return "".join(out)


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValidationError(f"document key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def loads_document(text: str) -> dict:
    """The JSON document of text; ValidationError on a parse error or a key given twice."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"document parse error at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc


def read_text(path: str) -> str:
    """The UTF-8 text of the file at path; ValidationError naming the path if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise ValidationError(f"file {path!r} is not UTF-8 text") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc.strerror}") from None


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: str, blob: bytes) -> None:
    """Write blob to path through a temporary file beside it; ValidationError naming
    the path when the directory cannot be made or the file cannot be written."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Hamiltonian documents
# ---------------------------------------------------------------------------

# The rows of each section of a Hamiltonian document, each checked by check_fields.  A
# geometry holds its kind and that kind's rows only; the edge pairs are checked by hand
_DOCUMENT_FIELDS = {"schema_version": VERSION_ROW, "kind": (str, "hamiltonian", ("hamiltonian",)),
                    "sites": (dict,), "terms": (list,)}
_SITES_FIELDS = {"n": (int, ..., 1), "d": (int, ..., 2), "geometry": (dict,)}
_GEOMETRY_KIND = {"kind": (str, ..., GEOMETRY_KINDS)}
_GEOMETRY_FIELDS = {"torus-2d": {"lx": (int, ..., 2), "ly": (int, ..., 2)},
                    "custom-adjacency": {"edges": (list,)}}
_TERM_FIELDS = {"support": (list, ..., 0, lambda n: n - 1), "matrix": (list,)}


def _matrix_to_rows(matrix: np.ndarray) -> list:
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_rows(rows: list, path: str) -> np.ndarray:
    """The square, finite complex matrix of `[re, im]` rows, or ValidationError naming path."""
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"field '{path}': malformed matrix rows: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.isfinite(mat).all():
        raise ValidationError(f"field '{path}': expected a square matrix of finite entries, "
                              f"got shape {mat.shape}")
    return mat


def geometry_to_document(geometry: Geometry) -> dict:
    doc: dict = {"kind": geometry.kind}
    if geometry.kind == "torus-2d":
        doc["lx"] = geometry.lx
        doc["ly"] = geometry.ly
    if geometry.kind == "custom-adjacency":
        doc["edges"] = [list(e) for e in geometry.edges]
    return doc


def geometry_from_document(doc: dict, n: int) -> Geometry:
    """The geometry of doc on n sites; doc holds only the keys geometry_to_document writes."""
    prefix = "sites.geometry."
    # the kind alone first: the other keys a geometry may hold depend on it
    kind = check_fields({k: doc[k] for k in _GEOMETRY_KIND if k in doc}, _GEOMETRY_KIND,
                        prefix)["kind"]
    fields = check_fields(doc, {**_GEOMETRY_KIND, **_GEOMETRY_FIELDS.get(kind, {})}, prefix)
    if "edges" in fields:
        for i, edge in enumerate(fields["edges"]):  # by place in doc: the Geometry sorts them
            if type(edge) is not list or len(edge) != 2 or not _admits(list, 0, n - 1, edge):
                raise ValidationError(f"field '{prefix}edges[{i}]': expected a pair of sites in "
                                      f"[0, {n - 1}], got {edge!r}")
        fields["edges"] = tuple((a, b) for a, b in fields["edges"])
    return Geometry(**fields)


def hamiltonian_to_document(h: HamiltonianSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "hamiltonian",
        "sites": {
            "n": h.sites.n,
            "d": h.sites.d,
            "geometry": geometry_to_document(h.sites.geometry),
        },
        "terms": [
            {"support": list(t.support), "matrix": _matrix_to_rows(t.matrix)}
            for t in h.terms
        ],
    }


def hamiltonian_from_document(doc: dict) -> HamiltonianSpec:
    """The Hamiltonian of doc, which holds only the keys hamiltonian_to_document writes;
    schema_version and kind may be left out.  Each term's is_projector is derived."""
    fields = check_fields(doc, _DOCUMENT_FIELDS)
    sites_doc = check_fields(fields["sites"], _SITES_FIELDS, "sites.")
    sites = SiteSpace(sites_doc["n"], sites_doc["d"],
                      geometry_from_document(sites_doc["geometry"], sites_doc["n"]))
    terms = []
    for i, term_doc in enumerate(fields["terms"]):
        term = check_fields(term_doc, _TERM_FIELDS, f"terms[{i}].", sites.n)
        path = f"terms[{i}].matrix"
        matrix = _matrix_from_rows(term["matrix"], path)
        scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            excess = np.abs(matrix @ matrix - matrix).max(initial=0.0)
        if not np.isfinite(excess):
            raise ValidationError(f"field '{path}': the square of the matrix overflows; its "
                                  "entries are too large")
        is_proj = bool(excess <= 1e-10 * scale)
        terms.append(LocalTerm(tuple(term["support"]), matrix, is_projector=is_proj))
    return HamiltonianSpec(sites, tuple(terms))


def save_hamiltonian(path: str, h: HamiltonianSpec) -> None:
    atomic_write_text(path, dumps_document(hamiltonian_to_document(h)) + "\n")


def load_hamiltonian(path: str) -> HamiltonianSpec:
    return hamiltonian_from_document(loads_document(read_text(path)))


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            elif isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
