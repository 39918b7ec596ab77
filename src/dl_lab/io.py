"""Serialization: structured-text documents, state binaries, CSV traces.

Documents are JSON with deterministic key order and floats printed with
17 significant digits so that every emitted number re-parses to the same
double.  All schemas carry a schema_version field.
"""
from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .hamiltonian import (Geometry, HamiltonianSpec, LocalTerm, SiteSpace,
                          chain_geometry)
from .states import StateVector

SCHEMA_VERSION = 1
_STATE_MAGIC = b"DLSV"


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


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: str, blob: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Hamiltonian documents
# ---------------------------------------------------------------------------

def _matrix_to_rows(matrix: np.ndarray) -> list:
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_rows(rows) -> np.ndarray:
    try:
        mat = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix rows: {exc}") from exc
    return mat


def geometry_to_document(geometry: Geometry) -> dict:
    doc: dict = {"kind": geometry.kind}
    if geometry.kind == "torus-2d":
        doc["lx"] = geometry.lx
        doc["ly"] = geometry.ly
    if geometry.kind == "custom-adjacency":
        doc["edges"] = [list(e) for e in geometry.edges]
    return doc


def _field(doc, key: str, path: str):
    """doc[key], or ValidationError naming the field at `path` when it is missing."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"hamiltonian document is missing field {path!r}")
    return doc[key]


def geometry_from_document(doc: dict) -> Geometry:
    kind = _field(doc, "kind", "sites.geometry.kind")
    if kind == "torus-2d":
        return Geometry(kind, lx=int(_field(doc, "lx", "sites.geometry.lx")),
                        ly=int(_field(doc, "ly", "sites.geometry.ly")))
    if kind == "custom-adjacency":
        edges = _field(doc, "edges", "sites.geometry.edges")
        return Geometry(kind, edges=tuple((int(a), int(b)) for a, b in edges))
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
    terms_doc = _field(doc, "terms", "terms")
    sites = SiteSpace(int(_field(sites_doc, "n", "sites.n")),
                      int(_field(sites_doc, "d", "sites.d")),
                      geometry_from_document(_field(sites_doc, "geometry", "sites.geometry")))
    terms = []
    for i, term_doc in enumerate(terms_doc):
        matrix = _matrix_from_rows(_field(term_doc, "matrix", f"terms[{i}].matrix"))
        support = _field(term_doc, "support", f"terms[{i}].support")
        scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
        is_proj = bool(np.abs(matrix @ matrix - matrix).max(initial=0.0) <= 1e-10 * scale)
        terms.append(LocalTerm(tuple(int(s) for s in support), matrix, is_projector=is_proj))
    return HamiltonianSpec(sites, tuple(terms))


def save_hamiltonian(path: str, h: HamiltonianSpec) -> None:
    atomic_write_text(path, dumps_document(hamiltonian_to_document(h)) + "\n")


def load_hamiltonian(path: str) -> HamiltonianSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return hamiltonian_from_document(loads_document(handle.read()))


# ---------------------------------------------------------------------------
# state vectors
# ---------------------------------------------------------------------------

def state_to_bytes(psi: StateVector) -> bytes:
    header = _STATE_MAGIC + struct.pack("<III", SCHEMA_VERSION, psi.sites.n, psi.sites.d)
    interleaved = np.empty(2 * psi.dim)
    amps = np.asarray(psi.amplitudes, dtype=complex)
    interleaved[0::2] = amps.real
    interleaved[1::2] = amps.imag
    return header + interleaved.astype("<f8").tobytes()


def state_from_bytes(blob: bytes, sites: SiteSpace | None = None) -> StateVector:
    if blob[:4] != _STATE_MAGIC:
        raise ValidationError("not a state-vector binary (bad magic)")
    version, n, d = struct.unpack("<III", blob[4:16])
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported state binary version {version}")
    data = np.frombuffer(blob[16:], dtype="<f8")
    if data.size != 2 * d ** n:
        raise ValidationError("state binary payload has the wrong length")
    amps = data[0::2] + 1j * data[1::2]
    if sites is None:
        sites = SiteSpace(n, d, chain_geometry())
    elif (sites.n, sites.d) != (n, d):
        raise ValidationError("provided site space does not match the binary header")
    return StateVector(amps, sites)


def state_to_document(psi: StateVector) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "state",
        "n": psi.sites.n,
        "d": psi.sites.d,
        "amplitudes": [[float(a.real), float(a.imag)]
                       for a in np.asarray(psi.amplitudes, dtype=complex)],
    }


def state_from_document(doc: dict, sites: SiteSpace | None = None) -> StateVector:
    n, d = int(doc["n"]), int(doc["d"])
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    if sites is None:
        sites = SiteSpace(n, d, chain_geometry())
    elif (sites.n, sites.d) != (n, d):
        raise ValidationError("provided site space does not match the document's n and d")
    return StateVector(amps, sites)


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
