"""Dense state-vector arithmetic over (C^d)^(x n).

Local operators are applied by tensor contraction over their support
axes only, so the cost is O(d^n * d^k) per term.  A run computes one
spectrum of H: one in-place eigh of the dense matrix up to DENSE_CUTOFF,
whose terms are added in place, each into a view of the matrix, with no
identity pushed through them (hamiltonian_matrix).
Above it the ground space is the common kernel of the terms, built site by
site (ground_kernel), and H is solved only above it, by one Lanczos solve
with that space shifted out of the way; ground_space only selects from the
spectrum.  Its residuals are checked as one block through the contraction
path, hamiltonian_apply.  The restricted operator norm on the ground-space
complement is one Lanczos solve on the Gram operator.  Every Lanczos solve
asserts its residuals.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
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
# Largest width * d whose Gram matrix one ground_kernel step diagonalizes: that eigh
# took 0.23 s at 1024, 1.5 s at 2048 and 12 s at 4096 (2-vCPU Xeon, 2 BLAS threads).
KERNEL_WIDTH_CAP = 2048
_CAP_ENV = "DL_LAB_MAX_DIM"


def dimension_cap() -> int:
    value = os.environ.get(_CAP_ENV) or str(HARD_DIM_CAP)
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"environment variable {_CAP_ENV}: expected an integer, "
                              f"got {value!r}") from None


def check_dim(dim: int) -> None:
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
        if not np.isfinite(amps).all():
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
        out += apply_term_array(term.matrix, term.support, arr, n, d)
    return out


def _is_complex(h: HamiltonianSpec) -> bool:
    return any(np.iscomplexobj(t.matrix) for t in h.terms)


def hamiltonian_matrix(h: HamiltonianSpec) -> np.ndarray:
    """Materialize the full d^n x d^n matrix (dense regime only).

    Each term is added in place, in term order, to a zeroed matrix through the
    writable np.einsum view of its diagonal on the sites outside the support:
    any support, and the entries of hamiltonian_apply on the identity, bit for bit.
    """
    n, d, dim = h.sites.n, h.sites.d, h.sites.dim
    check_dim(dim)
    if dim > DENSE_CUTOFF:
        raise DimensionCapError(f"dense matrix of dimension {dim} refused (> {DENSE_CUTOFF})")
    out = np.zeros((dim, dim), dtype=complex if _is_complex(h) else float)
    for term in h.terms:  # row axis s is label s, column axis s is label n + s
        support, rest = list(term.support), [s for s in range(n) if s not in term.support]
        cols = [n + s if s in support else s for s in range(n)]
        view = np.einsum(out.reshape((d,) * (2 * n)), list(range(n)) + cols,
                         support + [n + s for s in support] + rest)
        view += term.matrix.reshape((d,) * (2 * term.k) + (1,) * len(rest))
    return out


@dataclass(frozen=True)
class SpectrumData:
    """Lowest eigenpairs, ascending; vectors is C-order (dim, count), one per column."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


def _lanczos(matvec: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, k: int,
            which: str, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k eigenpairs at one end of a Hermitian operator, ascending, with residuals.

    One ARPACK solve (tol 1e-10) started from v0, whose dtype sets the
    arithmetic.  Every Ritz pair's residual ||G v - theta v|| must not
    exceed RESIDUAL_TOL, else ConvergenceError.
    """
    dim = v0.shape[0]
    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=v0.dtype)
    try:
        theta, vecs = spla.eigsh(op, k=k, which=which, tol=1e-10, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"{what} Lanczos did not converge: {exc}") from exc
    order = np.argsort(theta)
    theta, vecs = theta[order], vecs[:, order]
    return theta, vecs, _checked_residuals(matvec(vecs), theta, vecs, what)


def _checked_residuals(applied: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                       what: str) -> np.ndarray:
    """Column norms of G V - V diag(values), given applied = G V (overwritten)."""
    applied -= vectors * values
    residuals = np.linalg.norm(applied, axis=0)
    if residuals.size and residuals.max() > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{what} residuals up to {residuals.max():g} exceed {RESIDUAL_TOL:g}")
    return residuals


def ground_kernel(h: HamiltonianSpec) -> np.ndarray:
    """Orthonormal (dim, deg) basis of the common kernel of the projector terms.

    The ground space of a frustration-free H, real for real terms, built
    site by site as in Bravyi's kernel propagation for quantum 2-SAT.  G
    spans the states of sites 0..j-1 that every term ending there
    annihilates.  At site j, B = G (x) C^d keeps only the null space (Gram
    eigenvalues at most the zero threshold of ground_space) of the terms
    whose last site is j, refined once.  B is never formed: the terms act on
    G (x) e_t, one t at a time.  Empty once a step keeps nothing.
    DimensionCapError, naming the site, when width * d exceeds
    KERNEL_WIDTH_CAP before a step.
    """
    if not h.all_projectors():
        raise ValidationError("the ground kernel needs projector terms; run projectorize first")
    n, d = h.sites.n, h.sites.d
    zero = GROUND_TOL_SCALE * (1.0 + h.norm_bound())
    ending: list[list[LocalTerm]] = [[] for _ in range(n)]
    for term in h.terms:
        ending[max(term.support)].append(term)
    g = np.ones((1, 1), dtype=complex if _is_complex(h) else float)
    for j, terms in enumerate(ending):
        w = g.shape[1]
        if w * d > KERNEL_WIDTH_CAP:
            raise DimensionCapError(f"ground kernel of width {w} at site {j}: width * d = "
                                    f"{w * d} exceeds {KERNEL_WIDTH_CAP}")
        if not terms:
            g = np.kron(g, np.eye(d))
            continue

        def apply_terms(arr: np.ndarray, twice: bool = False) -> np.ndarray:
            """sum P arr, or sum P P arr, over the terms ending at j."""
            out = np.zeros_like(arr)
            for term in terms:
                once = apply_term_array(term.matrix, term.support, arr, j + 1, d)
                out += (apply_term_array(term.matrix, term.support, once, j + 1, d)
                        if twice else once)
            return out

        extend = lambda v: (g @ v.reshape(w, -1)).reshape(d ** (j + 1), -1)  # B v
        restrict = lambda arr: (g.conj().T @ arr.reshape(d ** j, -1)).reshape(w * d, -1)  # B^dag
        gram = np.empty((w * d, w, d), g.dtype)  # B^dag sum P B, column b * d + u
        for u in range(d):
            ext = np.zeros((d ** j, d, w), g.dtype)
            ext[:, u] = g
            gram[..., u] = restrict(apply_terms(ext.reshape(d ** (j + 1), w)))
        values, vectors = np.linalg.eigh(gram.reshape(w * d, w * d))
        kept = values <= zero
        if not kept.any():
            return np.empty((h.sites.dim, 0), g.dtype)
        null, rest = vectors[:, kept], vectors[:, ~kept]
        # the Gram squares the conditioning: null leans into rest by up to eps over the
        # smallest eigenvalue lam of rest.  One refinement step takes the lean out down to
        # eps / sqrt(lam): sum P P equals sum P on projectors, and the second P drops the
        # rounding of the first outside the range of P
        leak = rest.conj().T @ restrict(apply_terms(extend(null), twice=True))
        g = extend(null - rest @ (leak / values[~kept, None]))
    return g


def spectrum(h: HamiltonianSpec, count: int | None = None,
             fixed: np.ndarray | None = None) -> SpectrumData:
    """Lowest eigenpairs of sum_i Q_i: all, or the lowest `count`, when dense.

    Dense, one in-place eigh.  Above DENSE_CUTOFF, fixed is the ground space
    (ground_kernel): its columns are the first rows, and one Lanczos solve on
    H + norm_bound * P_fixed adds the lowest max(1, count - deg) states above
    it.  ConvergenceError when a solved value is under the zero threshold (a
    ground state the kernel missed), a fixed state is above it, or a
    residual of the one hamiltonian_apply on all the vectors is too large.
    """
    dim = h.sites.dim
    check_dim(dim)
    if dim <= DENSE_CUTOFF:
        # eigh works in place on the Fortran view of the matrix, conj(H): conjugate the
        # vectors back, into C order (the batched contractions are slow on Fortran order)
        evals, vectors = scipy.linalg.eigh(hamiltonian_matrix(h).T, overwrite_a=True,
                                           check_finite=False, driver="evd")
        evals, vectors = evals[:count], np.conjugate(vectors[:, :count], order="C")
        applied = hamiltonian_apply(h, vectors)
    else:
        if fixed is None:
            raise ValidationError(f"dimension {dim} is out of the dense regime: the spectrum "
                                  "needs the ground kernel")
        dtype = complex if _is_complex(h) else float
        v0 = np.random.default_rng(1234).standard_normal(dim).astype(dtype)
        shift = h.norm_bound()
        shifted = lambda v: (hamiltonian_apply(h, v.astype(dtype, copy=False))
                             + shift * (fixed @ (fixed.conj().T @ v)))
        deg = fixed.shape[1]
        theta, vecs, _ = _lanczos(shifted, v0, max(1, (count or 0) - deg), "SA",
                                  "shifted eigenpair")
        vectors = np.hstack([fixed, vecs])
        applied = hamiltonian_apply(h, vectors)
        rayleigh = np.einsum("ij,ij->j", fixed.conj(), applied[:, :deg]).real
        evals = np.concatenate([rayleigh, theta])
        zero = GROUND_TOL_SCALE * (1.0 + shift)  # the threshold of ground_space
        if theta[0] <= zero or (rayleigh > zero).any():
            raise ConvergenceError(
                f"the ground kernel ({deg} states) is not the zero-energy space of H: "
                f"lowest solved energy {theta[0]:g}, highest fixed-state energy "
                f"{rayleigh.max(initial=0.0):g}, zero threshold {zero:g}")
    residuals = _checked_residuals(applied, evals, vectors, "eigenpair")
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


def ground_space(h: HamiltonianSpec, spectrum_data: SpectrumData) -> GroundSpaceData:
    """Orthonormal basis of the eigenvalue-0 space and the gap above it.

    Selects from spectrum_data, the lowest eigenpairs of h; it never
    diagonalizes.
    """
    threshold = GROUND_TOL_SCALE * (1.0 + h.norm_bound())
    values = spectrum_data.values
    n_ground = int(np.searchsorted(values, threshold, side="right"))
    if values[0] > threshold:
        raise ValidationError(
            f"ground energy {values[0]:g} is above the zero threshold {threshold:g}; "
            "the model is not frustration-free"
        )
    if n_ground >= len(values):
        raise ValidationError("no eigenvalue found above the ground threshold")
    basis = tuple(StateVector(spectrum_data.vectors[:, i], h.sites) for i in range(n_ground))
    return GroundSpaceData(float(values[0]), float(values[n_ground]), basis)


def gaussian_filter(h: HamiltonianSpec, q: float, psi: StateVector,
                    spectrum_data: SpectrumData) -> StateVector:
    """Apply sum_E exp(-q E^2 / 2) |E><E| to psi, given the full spectrum of h."""
    if q < 0:
        raise ValidationError("q must be non-negative")
    if len(spectrum_data.values) < h.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    weights = np.exp(-q * spectrum_data.values ** 2 / 2.0)
    coeffs = spectrum_data.vectors.conj().T @ psi.amplitudes
    return StateVector(spectrum_data.vectors @ (weights * coeffs), psi.sites)


def gaussian_filter_deviation(q: float, gs: GroundSpaceData,
                              spectrum_data: SpectrumData) -> float:
    """Operator-norm distance of the filter from the ground projector, given the full spectrum."""
    if len(spectrum_data.values) < gs.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    basis, b = spectrum_data.vectors, gs.basis_matrix()
    diff = (basis.conj() * np.exp(-q * spectrum_data.values ** 2 / 2.0)) @ basis.T
    diff -= b.conj() @ b.T
    # diff is conj(filt - proj), Hermitian with the same eigenvalues, so its 2-norm is
    # its largest |eigenvalue|; numpy's eigvalsh shares the BLAS threads of the product
    # above, where scipy's own thread pool slowed the small models
    return float(np.abs(np.linalg.eigvalsh(diff)).max())


def restricted_norm(op_apply: Callable[[np.ndarray], np.ndarray],
                    adjoint_apply: Callable[[np.ndarray], np.ndarray],
                    gs: GroundSpaceData) -> float:
    """Largest singular value of the operator restricted to the ground complement.

    The square root of the top eigenvalue of G = P' op^dag op P', P' the
    ground-complement projector, never materialized: one Lanczos solve from
    a projected random start; arithmetic is real when the basis is real and
    op_apply maps a real vector to a real array.  0.0 when G annihilates the
    start (up to GRAM_ZERO_TOL): G vanishes on the complement, and ARPACK
    cannot start from such a vector.
    """
    basis = gs.basis_matrix()
    project_out = lambda v: v - basis @ (basis.conj().T @ v)
    v0 = project_out(np.random.default_rng(97).standard_normal(basis.shape[0]))
    a_v0 = op_apply(v0)
    if np.linalg.norm(project_out(adjoint_apply(a_v0))) <= GRAM_ZERO_TOL * np.linalg.norm(v0):
        return 0.0
    gram = lambda v: project_out(adjoint_apply(op_apply(project_out(v))))
    theta, _, _ = _lanczos(gram, v0.astype(np.result_type(v0, a_v0)), 1, "LA", "restricted-norm")
    return float(np.sqrt(max(theta[0], 0.0)))
