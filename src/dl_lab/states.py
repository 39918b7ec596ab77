"""Dense state-vector arithmetic over (C^d)^(x n).

Local operators are applied by tensor contraction over their support
axes only, so the cost is O(d^n * d^k) per term.  Each decision is made in
one place.  apply_term_array has two cases: a forward run of sites, and any
other support, whose axes are moved to the end and contracted there as a
last bond.  spectrum picks the regime: one in-place eigh of the dense
matrix up to DENSE_CUTOFF, whose terms are added in place, each into a view
of the matrix, with no identity pushed through them (hamiltonian_matrix).
Above it the ground space is the common kernel of the terms, built site by
site (ground_kernel), and H is solved only above it, one Lanczos solve per
state, with the kernel and the states found so far shifted out of the way.
zero_threshold is the one energy under which a state counts as ground.
ground_space only selects from the spectrum, and holds the ground space as
one (dim, deg) view of its vectors.  The residuals are checked as one block
through the contraction path, hamiltonian_apply.  The restricted operator
norm on the ground-space complement is one Lanczos solve on the Gram
operator.  Every Lanczos solve asserts its residuals.

numpy and scipy each load their own OpenBLAS with its own thread pool, and
ARPACK does its vector work in scipy's.  So no ARPACK matvec calls threaded
numpy BLAS: a single vector on a run of sites, and any array on any other
support, is contracted in GEMMs of at most GEMM_BLOCK_WORK multiply-adds,
which OpenBLAS runs on the calling thread (_blocked_apply); a batch on a run
of sites is one np.einsum, and the projections onto found states are
np.einsum calls (_projection), which never call BLAS.  This holds for terms
with d^(2k) <= GEMM_BLOCK_WORK.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
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
# Most multiply-adds in one GEMM of the single-vector contraction.  OpenBLAS runs a GEMM on
# the calling thread up to m * n * k = 65536 * 4 (SMP_THRESHOLD_MIN times
# GEMM_MULTITHREAD_THRESHOLD) and wakes its pool above that.  numpy and scipy each load
# their own OpenBLAS, and ARPACK runs its vector work in scipy's pool: one threaded 2-D GEMM
# per matvec slowed ARPACK's own time on the AKLT-12 ring from 1.26 to 4.70 s (2 threads).
# In blocks, that ring's spectrum went 8.6-9.6 s -> 4.0 s (with the einsum projections),
# and 2**12 to 2**18 gave the same AKLT-10 spectrum time within noise (2-vCPU Xeon).
# The batched np.einsum fold never calls BLAS either, but is slower on one vector: at 3^10
# with a two-site term it took 0.29, 0.66, 3.9 and 0.72 ms on the first, a middle, the
# right == d and the last bond, where these blocks took 0.045, 0.076, 0.27 and 0.12 ms.
GEMM_BLOCK_WORK = 2 ** 18
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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / nrm, self.sites)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def product_state(sites: SiteSpace, local_vectors: Sequence[np.ndarray]) -> StateVector:
    if len(local_vectors) != sites.n:
        raise ValidationError("need one local vector per site")
    amps = np.asarray(local_vectors[0], dtype=complex)
    for vec in local_vectors[1:]:
        amps = np.kron(amps, np.asarray(vec, dtype=complex))
    return StateVector(amps, sites)


def random_state(sites: SiteSpace, seed: int | np.random.Generator = 0) -> StateVector:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    amps = rng.standard_normal(sites.dim) + 1j * rng.standard_normal(sites.dim)
    return StateVector(amps / np.linalg.norm(amps), sites)


def apply_term_array(matrix: np.ndarray, support: Sequence[int], arr: np.ndarray,
                     n: int, d: int) -> np.ndarray:
    """Contract (M x 1_rest) with arr over the support site axes.

    arr may carry trailing batch axes after the leading d**n axis.  On a
    forward run of sites a single vector is contracted in GEMMs of at most
    GEMM_BLOCK_WORK multiply-adds each, so that OpenBLAS runs every one on the
    calling thread (_blocked_apply), and a batch is one np.einsum on the
    (left, d^k, rest) fold.  Any other support (the periodic wrap bond, a
    reversed or scattered support, a plaquette) has its axes moved to the end
    in support order, after the batch axes, is contracted there as a last
    bond by the same row blocks, and is moved back.
    """
    k = len(support)
    batch = arr.shape[1:]
    s0 = support[0]
    if tuple(support) == tuple(range(s0, s0 + k)):
        if not batch:
            return _blocked_apply(matrix, arr, d ** s0, d ** (n - s0 - k), d)
        folded = arr.reshape((d ** s0, d ** k, d ** (n - s0 - k)) + batch)
        return np.einsum("ab,lb...->la...", matrix, folded).reshape((d ** n,) + batch)
    order = [s for s in range(n) if s not in support] + list(range(n, n + len(batch)))
    order += support
    moved = np.ascontiguousarray(arr.reshape((d,) * n + batch).transpose(order))
    out = _blocked_apply(matrix, moved.reshape(-1), moved.size // d ** k, 1, d)
    out = out.reshape(moved.shape).transpose(np.argsort(order))
    return np.ascontiguousarray(out).reshape((d ** n,) + batch)


def _blocked_apply(matrix: np.ndarray, arr: np.ndarray, left: int, right: int,
                   d: int) -> np.ndarray:
    """matrix on the middle axis of the vector arr folded as (left, size, right).

    Each GEMM takes at most GEMM_BLOCK_WORK multiply-adds: on the last bond
    (right 1) row blocks of the (left, size) fold times matrix.T, elsewhere
    matrix times column blocks of each (size, right) slice, written through a
    transposed view of the output.  A block is the largest common divisor of
    the extent and the largest power of d within that work, so it divides the
    rows whatever batch axes they hold.
    """
    size = matrix.shape[0]
    most = 1
    while most * d * size * size <= GEMM_BLOCK_WORK:
        most *= d
    if right == 1:
        return np.matmul(arr.reshape(-1, math.gcd(left, most), size), matrix.T).reshape(-1)
    cols = math.gcd(right, most)
    out = np.empty(arr.shape, np.result_type(matrix, arr))
    blocks = lambda a: a.reshape(left, size, right // cols, cols).transpose(0, 2, 1, 3)
    np.matmul(matrix, blocks(arr), out=blocks(out))
    return out


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


def _projection(basis: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> basis basis^dag v, for a vector or a (dim, b) block, in two np.einsum calls.

    np.einsum never calls BLAS, so a projection inside a Lanczos matvec keeps off
    numpy's thread pool (see GEMM_BLOCK_WORK), where basis @ (basis^dag v) made two
    threaded gemv calls.  The basis is held once as C-contiguous conjugated rows,
    and basis c = conj(rows^T conj(c)).
    """
    rows = np.conjugate(basis.T, order="C")
    return lambda v: np.einsum("md,m...->d...", rows,
                               np.einsum("md,d...->m...", rows, v).conj()).conj()


def _checked_residuals(applied: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                       what: str) -> np.ndarray:
    """Column norms of G V - V diag(values), given applied = G V (overwritten)."""
    applied -= vectors * values
    residuals = np.linalg.norm(applied, axis=0)
    if residuals.size and residuals.max() > RESIDUAL_TOL:
        raise ConvergenceError(
            f"{what} residuals up to {residuals.max():g} exceed {RESIDUAL_TOL:g}")
    return residuals


def zero_threshold(h: HamiltonianSpec) -> float:
    """Largest energy that counts as zero: GROUND_TOL_SCALE times 1 + norm_bound."""
    return GROUND_TOL_SCALE * (1.0 + h.norm_bound())


def ground_kernel(h: HamiltonianSpec) -> np.ndarray:
    """Orthonormal (dim, deg) basis of the common kernel of the projector terms.

    The ground space of a frustration-free H, real for real terms, built
    site by site as in Bravyi's kernel propagation for quantum 2-SAT.  G
    spans the states of sites 0..j-1 that every term ending there
    annihilates.  At site j, B = G (x) C^d keeps only the null space (Gram
    eigenvalues at most zero_threshold) of the terms whose last site is j,
    refined once.  B is never formed: the terms act on G (x) e_t, one t at a
    time.  Empty once a step keeps nothing.
    DimensionCapError, naming the site, when width * d exceeds
    KERNEL_WIDTH_CAP before a step.
    """
    if not h.all_projectors():
        raise ValidationError("the ground kernel needs projector terms; run projectorize first")
    n, d = h.sites.n, h.sites.d
    zero = zero_threshold(h)
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


def spectrum(h: HamiltonianSpec, count: int | None = None) -> SpectrumData:
    """Lowest eigenpairs of sum_i Q_i; this is where the regime is decided.

    Up to DENSE_CUTOFF, all of them, from one in-place eigh (count is not
    read).  Above it, the ground space is the common kernel of the terms,
    built here (ground_kernel): its columns are the first rows, and the lowest
    max(1, count - deg) states above it follow, one Lanczos solve each, on H
    plus norm_bound times the projector onto the kernel and the states found
    so far.  ValidationError when the kernel is empty (the model is not
    frustration-free); ConvergenceError when a solved value is under
    zero_threshold (a ground state the kernel missed), a kernel state is
    above it, or a residual of the one hamiltonian_apply on all the vectors
    is too large.
    """
    dim = h.sites.dim
    check_dim(dim)
    if dim <= DENSE_CUTOFF:
        # eigh works in place on the Fortran view of the matrix, conj(H): conjugate the
        # vectors back, into C order (the batched contractions are slow on Fortran order)
        evals, vectors = scipy.linalg.eigh(hamiltonian_matrix(h).T, overwrite_a=True,
                                           check_finite=False, driver="evd")
        vectors = np.conjugate(vectors, order="C")
        applied = hamiltonian_apply(h, vectors)
    else:
        kernel = ground_kernel(h)
        if kernel.shape[1] == 0:
            raise ValidationError("no state is annihilated by every term; "
                                  "the model is not frustration-free")
        dtype = complex if _is_complex(h) else float
        rng, shift, deg = np.random.default_rng(1234), h.norm_bound(), kernel.shape[1]
        vectors, theta = kernel, []
        # one state per solve, each from a fresh start: a start reused would have no
        # component in the copies of a degenerate level that are still missing
        for _ in range(max(1, (count or 0) - deg)):
            shifted = lambda v, found=_projection(vectors): (
                hamiltonian_apply(h, v.astype(dtype, copy=False)) + shift * found(v))
            value, vec, _ = _lanczos(shifted, rng.standard_normal(dim).astype(dtype), 1, "SA",
                                     "shifted eigenpair")
            vectors, theta = np.hstack([vectors, vec]), theta + [value[0]]
        order = np.argsort(theta, kind="stable")
        theta, vectors[:, deg:] = np.array(theta)[order], vectors[:, deg + order]
        applied = hamiltonian_apply(h, vectors)
        rayleigh = np.einsum("ij,ij->j", kernel.conj(), applied[:, :deg]).real
        evals = np.concatenate([rayleigh, theta])
        zero = zero_threshold(h)
        if theta[0] <= zero or (rayleigh > zero).any():
            raise ConvergenceError(
                f"the ground kernel ({deg} states) is not the zero-energy space of H: "
                f"lowest solved energy {theta[0]:g}, highest kernel-state energy "
                f"{rayleigh.max(initial=0.0):g}, zero threshold {zero:g}")
    residuals = _checked_residuals(applied, evals, vectors, "eigenpair")
    return SpectrumData(np.asarray(evals, dtype=float), vectors, residuals)


@dataclass(frozen=True)
class GroundSpaceData:
    """Zero-energy eigenspace of a frustration-free Hamiltonian plus its gap.

    basis is orthonormal, one state per column: a view of the spectrum's vectors.
    """

    ground_energy: float
    gap: float
    basis: np.ndarray
    sites: SiteSpace

    @property
    def degeneracy(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def omega(self) -> StateVector:
        """The first ground state, normalized: the state the one-vector checks measure."""
        return StateVector(self.basis[:, 0], self.sites).normalized()


def ground_space(h: HamiltonianSpec, spectrum_data: SpectrumData) -> GroundSpaceData:
    """Orthonormal basis of the eigenvalue-0 space and the gap above it.

    Selects from spectrum_data, the lowest eigenpairs of h; it never
    diagonalizes.
    """
    threshold = zero_threshold(h)
    values = spectrum_data.values
    n_ground = int(np.searchsorted(values, threshold, side="right"))
    if values[0] > threshold:
        raise ValidationError(
            f"ground energy {values[0]:g} is above the zero threshold {threshold:g}; "
            "the model is not frustration-free"
        )
    if n_ground >= len(values):
        raise ValidationError("no eigenvalue found above the ground threshold")
    return GroundSpaceData(float(values[0]), float(values[n_ground]),
                           spectrum_data.vectors[:, :n_ground], h.sites)


def gaussian_filter_deviation(q: float, gs: GroundSpaceData,
                              spectrum_data: SpectrumData) -> float:
    """Operator-norm distance of the filter from the ground projector, given the full spectrum."""
    if len(spectrum_data.values) < gs.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    basis, b = spectrum_data.vectors, gs.basis
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
    project = _projection(gs.basis)
    project_out = lambda v: v - project(v)
    v0 = project_out(np.random.default_rng(97).standard_normal(gs.basis.shape[0]))
    a_v0 = op_apply(v0)
    if np.linalg.norm(project_out(adjoint_apply(a_v0))) <= GRAM_ZERO_TOL * np.linalg.norm(v0):
        return 0.0
    gram = lambda v: project_out(adjoint_apply(op_apply(project_out(v))))
    theta, _, _ = _lanczos(gram, v0.astype(np.result_type(v0, a_v0)), 1, "LA", "restricted-norm")
    return float(np.sqrt(max(theta[0], 0.0)))
