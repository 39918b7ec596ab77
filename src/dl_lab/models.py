"""Bundled frustration-free gapped models used as the test corpus.

Pinning chains, the SU(2) ferromagnetic Heisenberg point (singlet
projectors), the AKLT spin-1 chain, the toric code on a small torus,
and parent Hamiltonians of seeded random matrix-product states.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hamiltonian import (HamiltonianSpec, LocalTerm, SiteSpace,
                          chain_geometry, torus_geometry)
from .states import StateVector, check_dim

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def spin_matrices(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin operators (sx, sy, sz) for the spin-(d-1)/2 representation."""
    s = (d - 1) / 2.0
    m = s - np.arange(d)
    sz = np.diag(m)
    raise_amp = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((d, d))
    sp[np.arange(d - 1), np.arange(1, d)] = raise_amp
    sm = sp.T
    return 0.5 * (sp + sm), -0.5j * (sp - sm), sz


SITE_OBSERVABLES = ("number", "sx", "sy", "sz")


def site_observable(name: str, d: int) -> np.ndarray:
    if name not in SITE_OBSERVABLES:
        raise ValidationError(f"unknown observable {name!r}; have {list(SITE_OBSERVABLES)}")
    sx, sy, sz = spin_matrices(d)
    return {"sx": sx, "sy": sy, "sz": sz, "number": np.diag(np.arange(d, dtype=float))}[name]


def singlet_projector() -> np.ndarray:
    """Rank-1 projector onto the two-qubit singlet."""
    sx, sy, sz = spin_matrices(2)
    heis = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    return 0.25 * np.eye(4) - heis.real


def aklt_projector() -> np.ndarray:
    """Projector onto total spin 2 of two spin-1 particles (rank 5)."""
    sx, sy, sz = spin_matrices(3)
    heis = (np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)).real
    return (heis @ heis + 3.0 * heis + 2.0 * np.eye(9)) / 6.0


def _kron_chain(ops: list[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class ModelDescriptor:
    """Name plus parameters, with optionally recorded expected facts."""

    name: str
    parameters: tuple[tuple[str, object], ...]
    expected: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def make(name: str, expected: dict | None = None, **parameters) -> "ModelDescriptor":
        return ModelDescriptor(
            name,
            tuple(sorted(parameters.items())),
            tuple(sorted((expected or {}).items())),
        )

    @property
    def params(self) -> dict:
        return dict(self.parameters)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.parameters)
        return f"{self.name}({inner})"


def build_model(descriptor: ModelDescriptor) -> HamiltonianSpec:
    """Construct the named frustration-free model; its parameters must match MODELS."""
    if descriptor.name not in MODELS:
        raise ValidationError(f"unknown model name {descriptor.name!r}")
    builder, schema = MODELS[descriptor.name]
    return builder(**check_parameters(descriptor.params, schema, "model.parameters"))


_TYPE_NAMES = {int: "an integer", bool: "a boolean", list: "a non-empty list of integers"}


def check_parameters(values: dict, schema: dict, field: str, n: int | None = None) -> dict:
    """`values` checked against `schema`, with the defaults of absent keys filled in.

    A row is (type,) or (type, ..., low, high) for a required key, else
    (type, default, low, high), the bounds optional; a str row takes its
    choices as low.  A default or bound given as a function takes n, the
    number of sites; None leaves it unset or open.  Types are exact (a bool
    is no integer, nor is 5.7), a list holds integers within the bounds, and
    unknown keys are refused.
    """
    refuse_unknown_keys(values, schema, f"{field}.")
    resolved = {}
    for key, (kind, *rest) in schema.items():
        default, low, high = [*(r(n) if callable(r) else r for r in rest or [...]), None, None][:3]
        if key not in values and default is ...:
            raise ValidationError(f"field '{field}.{key}': missing required parameter")
        value = resolved[key] = values.get(key, default)
        if key in values and not _admits(kind, low, high, value):
            bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
            expected = f"one of {list(low)}" if kind is str else _TYPE_NAMES[kind] + bounds
            raise ValidationError(f"field '{field}.{key}': expected {expected}, got {value!r}")
    return resolved


def refuse_unknown_keys(doc: dict, known, prefix: str) -> None:
    """ValidationError naming prefix + the first key of doc that known does not hold."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValidationError(f"field '{prefix}{unknown[0]}': unknown key; "
                              f"expected one of {sorted(known)}")


def _admits(kind: type, low, high, value) -> bool:
    if type(value) is not kind:
        return False
    if kind is list:
        return bool(value) and all(_admits(int, low, high, m) for m in value)
    if kind is str:
        return value in low
    return (low is None or value >= low) and (high is None or value <= high)


def _pinning(n: int) -> HamiltonianSpec:
    sites = SiteSpace(n, 2, chain_geometry())
    excited = np.array([[0.0, 0.0], [0.0, 1.0]])
    terms = tuple(LocalTerm((i,), excited, is_projector=True) for i in range(n))
    return HamiltonianSpec(sites, terms)


def _chain_pair_model(n: int, d: int, pair: np.ndarray, periodic: bool) -> HamiltonianSpec:
    if n < 2:
        raise ValidationError("pair models need at least two sites")
    sites = SiteSpace(n, d, chain_geometry(periodic))
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    terms = tuple(LocalTerm(b, pair, is_projector=True) for b in bonds)
    return HamiltonianSpec(sites, terms)


def _toric(lx: int, ly: int) -> HamiltonianSpec:
    sites = SiteSpace(2 * lx * ly, 2, torus_geometry(lx, ly))
    eye16 = np.eye(16)
    terms = []
    for builder, pauli in ((sites.star_sites, PAULI_X), (sites.plaquette_sites, PAULI_Z)):
        stabilizer = _kron_chain([pauli] * 4).real
        for x in range(lx):
            for y in range(ly):
                term = (eye16 - stabilizer) / 2.0
                terms.append(LocalTerm(builder(x, y), term, is_projector=True))
    return HamiltonianSpec(sites, tuple(terms))


def random_mps_state(n: int, d: int, bond: int, seed: int) -> StateVector:
    """Seeded random open-boundary matrix-product state, normalized."""
    rng = np.random.default_rng(seed)
    amps = None
    for i in range(n):
        left = 1 if i == 0 else bond
        right = 1 if i == n - 1 else bond
        tensor = rng.standard_normal((left, d, right)) + 1j * rng.standard_normal((left, d, right))
        amps = tensor if amps is None else np.dot(amps.reshape(-1, left), tensor.reshape(left, -1))
    amps = amps.reshape(-1)
    sites = SiteSpace(n, d, chain_geometry())
    return StateVector(amps / np.linalg.norm(amps), sites)


def build_parent_random(n: int, d: int, bond: int, seed: int) -> HamiltonianSpec:
    """Parent Hamiltonian of a seeded random matrix-product state.

    Each pair term projects onto the orthogonal complement of the range of
    the state's two-site reduced density matrix, so the target state is
    annihilated by construction.  Pairs whose reduced density matrix has
    full range produce a zero term and are dropped with a warning;
    degeneracy and gap are measured facts, not assumptions.
    """
    if d < 2 or not (1 <= bond <= d) or n < 3:
        raise ValidationError("need d >= 2, 1 <= bond <= d and n >= 3")
    check_dim(d ** n)  # before the d^n amplitudes of the state are contracted
    target = random_mps_state(n, d, bond, seed)
    terms = []
    for i in range(n - 1):
        folded = target.amplitudes.reshape(d ** i, d * d, d ** (n - i - 2))
        rho = np.einsum("lxr,lyr->xy", folded, folded.conj())
        evals, evecs = np.linalg.eigh(rho)
        keep = evals > 1e-10 * evals.max()
        if keep.all():
            warnings.warn(f"pair ({i},{i + 1}): reduced state has full range, term dropped")
            continue
        basis = evecs[:, keep]
        q = np.eye(d * d) - basis @ basis.conj().T
        q = (q + q.conj().T) / 2.0
        terms.append(LocalTerm((i, i + 1), q, is_projector=True))
    if not terms:
        raise ValidationError("every candidate term was dropped; no Hamiltonian remains")
    return HamiltonianSpec(SiteSpace(n, d, chain_geometry()), tuple(terms))


# name -> (builder, {parameter: row}), each row checked by check_parameters; a
# parameter with no default, or the default ..., is required
MODELS = {
    "pinning": (_pinning, {"n": (int,)}),
    "heisenberg-ferro": (lambda n, periodic: _chain_pair_model(n, 2, singlet_projector(), periodic),
                         {"n": (int,), "periodic": (bool, False)}),
    "aklt": (lambda n, periodic: _chain_pair_model(n, 3, aklt_projector(), periodic),
             {"n": (int,), "periodic": (bool, False)}),
    "toric-code": (_toric, {"lx": (int,), "ly": (int,)}),
    "parent-random": (build_parent_random,
                      {"n": (int,), "d": (int,), "bond": (int,), "seed": (int, ..., 0)}),
}


BUNDLED_MODELS: tuple[ModelDescriptor, ...] = (
    ModelDescriptor.make("pinning", n=6, expected={"degeneracy": 1, "gap": 1.0}),
    ModelDescriptor.make("heisenberg-ferro", n=2, expected={"degeneracy": 3, "gap": 1.0}),
    ModelDescriptor.make("heisenberg-ferro", n=8, expected={"degeneracy": 9}),
    ModelDescriptor.make("aklt", n=4, expected={"degeneracy": 4}),
    ModelDescriptor.make("aklt", n=6, periodic=True, expected={"degeneracy": 1}),
    ModelDescriptor.make("toric-code", lx=2, ly=2, expected={"degeneracy": 4, "gap": 2.0}),
    ModelDescriptor.make("parent-random", n=6, d=3, bond=2, seed=2,
                         expected={"degeneracy": 1}),
    ModelDescriptor.make("parent-random", n=8, d=2, bond=1, seed=4,
                         expected={"degeneracy": 1, "gap": 1.0}),
    ModelDescriptor.make("parent-random", n=8, d=2, bond=2, seed=7),
)


def descriptor_from_document(doc: dict) -> ModelDescriptor:
    if not isinstance(doc["name"], str):
        raise ValidationError(f"field 'model.name': expected a string, got {doc['name']!r}")
    params, expected = doc.get("parameters", {}), doc.get("expected", {})
    for key, value in (("parameters", params), ("expected", expected)):
        if not isinstance(value, dict):
            raise ValidationError(f"field 'model.{key}': expected an object")
    # built directly, so that a parameter named like an argument of make is reported
    return ModelDescriptor(doc["name"], tuple(sorted(params.items())),
                           tuple(sorted(expected.items())))
