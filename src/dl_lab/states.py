"""Dense state-vector arithmetic over (C^d)^(x n).

Local operators are applied by tensor contraction over their support
axes only, so the cost is O(d^n * d^k) per term.  Spectra switch from
full dense diagonalization to Lanczos iteration above DENSE_CUTOFF.  The
restricted operator norm on the ground-space complement is one Lanczos
solve on the Gram operator, in both regimes, with its residual asserted.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DimensionCapError, ValidationError
from .hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace

DENSE_CUTOFF = 4096
HARD_DIM_CAP = 2 ** 24
RESIDUAL_TOL = 1e-8
GROUND_TOL_SCALE = 1e-10
# Relative size of G v0 below which the Gram operator of restricted_norm
# counts as vanishing on the complement.  Rounding leaves up to about 1e-29
# on operators that vanish exactly; a true norm hidden below this is at most
# about sqrt(1e-24) * dim^(1/4), some 1e-10 at the dimension cap, under
# every check tolerance.
GRAM_ZERO_TOL = 1e-24
_CAP_ENV = "DL_LAB_MAX_DIM"


def dimension_cap() -> int:
    value = os.environ.get(_CAP_ENV)
    return int(value) if value else HARD_DIM_CAP


def _check_dim(dim: int) -> None:
    cap = dimension_cap()
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds cap {cap} (override with {_CAP_ENV})")


@dataclass(frozen=True)
class StateVector:
    """Amplitudes of a pure state; operations never mutate them in place."""

    amplitudes: np.ndarray
    sites: SiteSpace

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if amps.shape != (self.sites.dim,):
            raise ValidationError(
                f"amplitude array of length {amps.shape} does not match dim {self.sites.dim}"
            )
        finite = np.isfinite(amps.real).all() and np.isfinite(amps.imag).all() \
            if np.iscomplexobj(amps) else np.isfinite(amps).all()
        if not finite:
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.sites.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / nrm, self.sites)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(sites: SiteSpace, occupancies: Sequence[int]) -> StateVector:
    if len(occupancies) != sites.n:
        raise ValidationError("need one occupancy per site")
    index = 0
    for occ in occupancies:
        if not (0 <= occ < sites.d):
            raise ValidationError(f"occupancy {occ} out of range for d={sites.d}")
        index = index * sites.d + occ
    amps = np.zeros(sites.dim)
    amps[index] = 1.0
    return StateVector(amps, sites)


def product_state(sites: SiteSpace, local_vectors: Sequence[np.ndarray]) -> StateVector:
    if len(local_vectors) != sites.n:
        raise ValidationError("need one local vector per site")
    amps = np.asarray(local_vectors[0], dtype=complex)
    for vec in local_vectors[1:]:
        amps = np.kron(amps, np.asarray(vec, dtype=complex))
    return StateVector(amps, sites)


def uniform_superposition(sites: SiteSpace) -> StateVector:
    return StateVector(np.full(sites.dim, sites.dim ** -0.5), sites)


def random_state(sites: SiteSpace, seed: int | np.random.Generator = 0) -> StateVector:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    amps = rng.standard_normal(sites.dim) + 1j * rng.standard_normal(sites.dim)
    return StateVector(amps / np.linalg.norm(amps), sites)


def apply_term_array(matrix: np.ndarray, support: Sequence[int], arr: np.ndarray,
                     n: int, d: int) -> np.ndarray:
    """Contract (M x 1_rest) with arr over the support site axes.

    arr may carry trailing batch axes after the leading d**n axis.
    """
    k = len(support)
    batch = arr.shape[1:]
    s0 = support[0]
    if tuple(support) == tuple(range(s0, s0 + k)):
        left = d ** s0
        right = (d ** (n - s0 - k),) + batch
        folded = arr.reshape((left, d ** k) + right)
        out = np.einsum("ab,lb...->la...", matrix, folded) if batch else np.matmul(matrix, folded)
        return out.reshape((d ** n,) + batch)
    tensor = arr.reshape((d,) * n + batch)
    mat = matrix.reshape((d,) * (2 * k))
    out = np.tensordot(mat, tensor, axes=(tuple(range(k, 2 * k)), tuple(support)))
    out = np.moveaxis(out, tuple(range(k)), tuple(support))
    return np.ascontiguousarray(out).reshape((d ** n,) + batch)


def apply_local(term: LocalTerm, psi: StateVector) -> StateVector:
    """Return (M x 1_rest)|psi>; does not normalize."""
    sites = psi.sites
    for s in term.support:
        if not (0 <= s < sites.n):
            raise ValidationError(f"support site {s} out of range for n={sites.n}")
    out = apply_term_array(term.matrix, term.support, psi.amplitudes, sites.n, sites.d)
    return StateVector(out, sites)


def hamiltonian_apply(h: HamiltonianSpec, arr: np.ndarray) -> np.ndarray:
    n, d = h.sites.n, h.sites.d
    out = np.zeros_like(arr, dtype=complex if _is_complex(h) or np.iscomplexobj(arr) else float)
    for term in h.terms:
        out = out + apply_term_array(term.matrix, term.support, arr, n, d)
    return out


def _is_complex(h: HamiltonianSpec) -> bool:
    return any(np.iscomplexobj(t.matrix) for t in h.terms)


def hamiltonian_matrix(h: HamiltonianSpec) -> np.ndarray:
    """Materialize the full d^n x d^n matrix (dense regime only)."""
    dim = h.sites.dim
    _check_dim(dim)
    if dim > DENSE_CUTOFF:
        raise DimensionCapError(f"dense matrix of dimension {dim} refused (> {DENSE_CUTOFF})")
    eye = np.eye(dim, dtype=complex if _is_complex(h) else float)
    return hamiltonian_apply(h, eye)


@dataclass(frozen=True)
class SpectrumData:
    """Lowest eigenpairs of a Hamiltonian, ascending, with residual norms."""

    values: np.ndarray
    vectors: tuple[StateVector, ...]
    residuals: np.ndarray


def spectrum(h: HamiltonianSpec, count: int | None = None) -> SpectrumData:
    """Lowest `count` eigenpairs of sum_i Q_i (all of them in the dense regime)."""
    dim = h.sites.dim
    _check_dim(dim)
    n, d = h.sites.n, h.sites.d
    if dim <= DENSE_CUTOFF:
        mat = hamiltonian_matrix(h)
        evals, evecs = np.linalg.eigh(mat)
        if count is not None:
            evals, evecs = evals[:count], evecs[:, :count]
    else:
        if count is None:
            raise ValidationError(f"full spectrum of dimension {dim} is out of the dense regime")
        dtype = complex if _is_complex(h) else float
        matvec = lambda v: hamiltonian_apply(h, v.astype(dtype, copy=False))
        op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=dtype)
        v0 = np.random.default_rng(1234).standard_normal(dim)
        try:
            evals, evecs = spla.eigsh(op, k=count, which="SA", tol=1e-10, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    residuals = np.empty(len(evals))
    for i in range(len(evals)):
        residuals[i] = np.linalg.norm(hamiltonian_apply(h, evecs[:, i]) - evals[i] * evecs[:, i])
    if residuals.size and residuals.max() > RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpair residuals up to {residuals.max():g} exceed {RESIDUAL_TOL:g}"
        )
    vectors = tuple(StateVector(evecs[:, i], h.sites) for i in range(len(evals)))
    return SpectrumData(np.asarray(evals, dtype=float), vectors, residuals)


@dataclass(frozen=True)
class GroundSpaceData:
    """Zero-energy eigenspace of a frustration-free Hamiltonian plus its gap."""

    ground_energy: float
    gap: float
    ground_basis: tuple[StateVector, ...]

    @property
    def degeneracy(self) -> int:
        return len(self.ground_basis)

    @property
    def sites(self) -> SiteSpace:
        return self.ground_basis[0].sites

    def basis_matrix(self) -> np.ndarray:
        return np.stack([v.amplitudes for v in self.ground_basis], axis=1)

    def project_array(self, arr: np.ndarray) -> np.ndarray:
        b = self.basis_matrix()
        return b @ (b.conj().T @ arr)

    def project_out(self, psi: StateVector) -> StateVector:
        return StateVector(psi.amplitudes - self.project_array(psi.amplitudes), psi.sites)


def ground_space(h: HamiltonianSpec, count_hint: int = 6,
                 spectrum_data: SpectrumData | None = None) -> GroundSpaceData:
    """Orthonormal basis of the eigenvalue-0 space and the gap above it.

    In the dense regime a full spectrum of h already at hand may be passed
    as spectrum_data, so that it is not diagonalized again.
    """
    dim = h.sites.dim
    threshold = GROUND_TOL_SCALE * (1.0 + h.norm_bound())
    if dim <= DENSE_CUTOFF:
        spec = spectrum_data if spectrum_data is not None else spectrum(h)
    else:
        k = max(2, count_hint)
        while True:
            spec = spectrum(h, count=min(k, dim - 2))
            if spec.values[-1] > threshold or k >= dim - 2:
                break
            k *= 2
    values = spec.values
    if values[0] > threshold:
        raise ValidationError(
            f"ground energy {values[0]:g} is above the zero threshold {threshold:g}; "
            "the model is not frustration-free"
        )
    n_ground = int(np.searchsorted(values, threshold, side="right"))
    if n_ground >= len(values):
        raise ValidationError("no eigenvalue found above the ground threshold")
    basis = spec.vectors[:n_ground]
    return GroundSpaceData(float(values[0]), float(values[n_ground]), tuple(basis))


def gaussian_filter(h: HamiltonianSpec, q: float, psi: StateVector,
                    spectrum_data: SpectrumData) -> StateVector:
    """Apply sum_E exp(-q E^2 / 2) |E><E| to psi, given the full spectrum of h."""
    if q < 0:
        raise ValidationError("q must be non-negative")
    if len(spectrum_data.values) < h.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    basis = np.stack([v.amplitudes for v in spectrum_data.vectors], axis=1)
    weights = np.exp(-q * spectrum_data.values ** 2 / 2.0)
    coeffs = basis.conj().T @ psi.amplitudes
    return StateVector(basis @ (weights * coeffs), psi.sites)


def gaussian_filter_deviation(q: float, gs: GroundSpaceData,
                              spectrum_data: SpectrumData) -> float:
    """Operator-norm distance of the filter from the ground projector, given the full spectrum."""
    if len(spectrum_data.values) < gs.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    basis = np.stack([v.amplitudes for v in spectrum_data.vectors], axis=1)
    weights = np.exp(-q * spectrum_data.values ** 2 / 2.0)
    filt = (basis * weights) @ basis.conj().T
    b = gs.basis_matrix()
    proj = b @ b.conj().T
    # the difference is Hermitian, so its 2-norm is its largest |eigenvalue|
    return float(np.abs(np.linalg.eigvalsh(filt - proj)).max())


def restricted_norm(op_apply: Callable[[np.ndarray], np.ndarray],
                    adjoint_apply: Callable[[np.ndarray], np.ndarray],
                    gs: GroundSpaceData) -> float:
    """Largest singular value of the operator restricted to the ground complement.

    One Lanczos solve (ARPACK, k=1, largest algebraic) on the Gram operator
    G = P' op^dag op P', with the complement projector P' applied through
    the ground basis and never materialized.  The a-posteriori residual
    ||G v - theta v|| must not exceed RESIDUAL_TOL, else ConvergenceError.
    Arithmetic is real when the ground basis is real and op_apply maps a
    real vector to a real array.  When G annihilates the projected random
    start (up to GRAM_ZERO_TOL), G vanishes on the complement and the norm
    is 0.0; ARPACK cannot start from such a vector.
    """
    b = gs.basis_matrix()
    project_out = lambda v: v - b @ (b.conj().T @ v)
    v0 = project_out(np.random.default_rng(97).standard_normal(gs.sites.dim))
    a_v0 = op_apply(v0)
    dtype = np.result_type(v0, a_v0)
    gram = lambda v: project_out(adjoint_apply(op_apply(project_out(v))))
    g_v0 = project_out(adjoint_apply(a_v0))
    if np.linalg.norm(g_v0) <= GRAM_ZERO_TOL * np.linalg.norm(v0):
        return 0.0
    op = spla.LinearOperator((gs.sites.dim,) * 2, matvec=gram, dtype=dtype)
    try:
        theta, vecs = spla.eigsh(op, k=1, which="LA", tol=1e-10, v0=v0.astype(dtype))
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"restricted-norm Lanczos did not converge: {exc}") from exc
    v = vecs[:, 0]
    residual = float(np.linalg.norm(gram(v) - theta[0] * v))
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"restricted-norm residual {residual:g} exceeds {RESIDUAL_TOL:g}")
    return float(np.sqrt(max(theta[0], 0.0)))
