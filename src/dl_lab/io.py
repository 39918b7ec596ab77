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
from .hamiltonian import Geometry, HamiltonianSpec, LocalTerm, SiteSpace

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


def dumps_document(doc: dict) -> str:
    out: list[str] = []
    _encode(doc, out)
    return "".join(out)


def loads_document(text: str) -> dict:
    try:
        return json.loads(text)
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

def _matrix_to_rows(matrix: np.ndarray) -> list:
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_rows(rows, path: str) -> np.ndarray:
    """The square, finite complex matrix of `[re, im]` rows, or ValidationError naming path."""
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"hamiltonian field {path!r}: malformed matrix rows: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.isfinite(mat).all():
        raise ValidationError(f"hamiltonian field {path!r}: expected a square matrix of finite "
                              f"entries, got shape {mat.shape}")
    return mat


def geometry_to_document(geometry: Geometry) -> dict:
    doc: dict = {"kind": geometry.kind}
    if geometry.kind == "torus-2d":
        doc["lx"] = geometry.lx
        doc["ly"] = geometry.ly
    if geometry.kind == "custom-adjacency":
        doc["edges"] = [list(e) for e in geometry.edges]
    return doc


def _field(doc, key: str, path: str, kind: type | None = None, item: type | None = None):
    """doc[key], or ValidationError naming `path` when it is missing or, given kind,
    not exactly of that type (a bool or 4.5 is no int), with entries of type item."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"hamiltonian document is missing field {path!r}")
    value = doc[key]
    if kind and (type(value) is not kind or item and any(type(v) is not item for v in value)):
        what = kind.__name__ + (f" of {item.__name__}" if item else "")
        raise ValidationError(f"hamiltonian field {path!r}: expected {what}, got {value!r}")
    return value


def geometry_from_document(doc: dict) -> Geometry:
    kind = _field(doc, "kind", "sites.geometry.kind")
    if kind == "torus-2d":
        return Geometry(kind, lx=_field(doc, "lx", "sites.geometry.lx", int),
                        ly=_field(doc, "ly", "sites.geometry.ly", int))
    if kind == "custom-adjacency":
        edges = _field(doc, "edges", "sites.geometry.edges", list)
        if any(type(e) is not list or len(e) != 2 or any(type(s) is not int for s in e)
               for e in edges):
            raise ValidationError("hamiltonian field 'sites.geometry.edges': expected a list "
                                  f"of [a, b] integer pairs, got {edges!r}")
        return Geometry(kind, edges=tuple((a, b) for a, b in edges))
    return Geometry(kind)


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
    sites_doc = _field(doc, "sites", "sites")
    terms_doc = _field(doc, "terms", "terms", list)
    sites = SiteSpace(_field(sites_doc, "n", "sites.n", int),
                      _field(sites_doc, "d", "sites.d", int),
                      geometry_from_document(_field(sites_doc, "geometry", "sites.geometry")))
    terms = []
    for i, term_doc in enumerate(terms_doc):
        path = f"terms[{i}].matrix"
        matrix = _matrix_from_rows(_field(term_doc, "matrix", path), path)
        support = _field(term_doc, "support", f"terms[{i}].support", list, int)
        if not support:
            raise ValidationError(f"hamiltonian field 'terms[{i}].support': a term needs at "
                                  "least one site")
        scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            excess = np.abs(matrix @ matrix - matrix).max(initial=0.0)
        if not np.isfinite(excess):
            raise ValidationError(f"hamiltonian field {path!r}: the square of the matrix "
                                  "overflows; its entries are too large")
        is_proj = bool(excess <= 1e-10 * scale)
        terms.append(LocalTerm(tuple(support), matrix, is_projector=is_proj))
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
