"""Dense state-vector arithmetic over (C^d)^(x n).

Local operators are applied by tensor contraction over their support
axes only, so the cost is O(d^n * d^k) per term.  Each decision is made in
one place.  apply_term_array has two cases: a forward run of sites, and any
other support, whose axes are moved to the end and contracted there as a
last bond.  spectrum picks the regime.  Up to DENSE_CUTOFF H is assembled
and diagonalized on its exact blocks alone, found from the terms
(exact_blocks): the S_z sectors of Heisenberg and AKLT, the syndrome sectors
of the toric code, the rows of pinning.  A connected matrix is one block,
diagonalized with no copy, and a one-row block is its own entry and 1.  The
spectral filter takes the 2-norm of filt - proj one block at a time.  Above
the cutoff the ground space is the common kernel of the terms, built site by
site (ground_kernel), and H is solved only above it, one Lanczos solve per
state, with the kernel and the states found so far shifted out of the way.
zero_threshold is the one energy under which a state counts as ground.
ground_space only selects from the spectrum.  Every eigenpair's residual is
checked through the contraction path, hamiltonian_apply, on batches of
vectors (see spectrum).  The restricted operator norm on the ground-space
complement is one Lanczos solve on the Gram operator.  Every Lanczos solve
asserts its residuals.

numpy and scipy each load their own OpenBLAS with its own thread pool, and
a woken worker spins for a while after its call, competing with the calling
thread and with the other pool.  So one mechanism keeps one threaded pool,
scipy's: single_blas_pool sets numpy's to one thread, and every dense call
that should be threaded is scipy's.  runner.run enters it for the whole run,
and _lanczos for each ARPACK solve and its residual check, so that no matvec
of a library caller outside a run wakes numpy's pool either.  ARPACK does its
vector work in scipy's pool, and so do the dense eigh and the spectral
filter's rank-k update and 2-norm.
"""
from __future__ import annotations

import contextlib
import ctypes
import importlib
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.blas
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
# It is numpy's, so inside a run (single_blas_pool) it has one thread: 0.33 s at 1024 and
# 1.9 s at 2048 on a real Gram.
KERNEL_WIDTH_CAP = 2048
# Fewest entries of one column chunk of the dense residual check, which otherwise holds
# width^2 entries (the largest block's matrix, whose eigh already needed that memory).
# Without it toric-code(2,3) (dim 4096, width 32) ran 32 one-column chunks: its spectrum
# took 0.095-0.098 s against 0.046-0.049 s at 2**16 (2 chunks of 16) and 0.053-0.059 s
# at 2**18 (one chunk); medians of 15, 2-vCPU Xeon.
RESIDUAL_CHUNK_FLOOR = 2 ** 16
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


# (get, set) names of the thread-count functions of an OpenBLAS: scipy-openblas wheels
# prefix them, and the 64-bit-integer builds (numpy's) add a suffix
_OPENBLAS_THREAD_FUNCS = tuple((f"{prefix}get_num_threads{suffix}",
                                f"{prefix}set_num_threads{suffix}")
                               for prefix in ("scipy_openblas_", "openblas_")
                               for suffix in ("64_", ""))


def _openblas_threads(module: str) -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the OpenBLAS that an extension module links.

    A symbol looked up through the module's own handle is searched in the
    module and the libraries it links, not in the other loaded libraries.
    None when the module does not load or no OpenBLAS thread setter is found.
    """
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
    except (ImportError, OSError):
        return None
    for get, put in _OPENBLAS_THREAD_FUNCS:
        if hasattr(lib, get) and hasattr(lib, put):
            getter, setter = getattr(lib, get), getattr(lib, put)
            getter.restype, setter.argtypes, setter.restype = ctypes.c_int, [ctypes.c_int], None
            return getter, setter
    return None


@cache
def _numpy_blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's own OpenBLAS thread-count functions; None when it has none or shares scipy's."""
    core = "numpy._core" if int(np.__version__.split(".")[0]) >= 2 else "numpy.core"
    ours = _openblas_threads(f"{core}._multiarray_umath")
    theirs = _openblas_threads("scipy.linalg._fblas")
    address = lambda func: ctypes.cast(func, ctypes.c_void_p).value
    if ours is None or (theirs is not None and address(ours[1]) == address(theirs[1])):
        return None
    return ours


@contextlib.contextmanager
def single_blas_pool() -> Iterator[None]:
    """numpy's OpenBLAS on one thread for the block, so that scipy's is the one threaded pool.

    On entry numpy's pool is set to one thread; on exit, also after an
    exception, it gets back the count read on entry, so nested blocks restore
    correctly.  scipy's pool is never touched.  Nothing is done when numpy's
    BLAS is not an OpenBLAS with a thread setter, or is scipy's own library.
    The count is global to the process: concurrent blocks in threads of one
    process are not supported.  runner.run enters it, and so do the iterative
    spectrum and restricted_norm (through _lanczos), so none of them may be
    called from concurrent threads of one process.
    """
    threads = _numpy_blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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
    forward run of sites a single vector on the last bond is one GEMM of its
    (left, d^k) rows times M^T, and any other array, batch or not, is one
    np.matmul on the (left, d^k, rest) fold, a GEMM per left index; there a
    complex array through a real term goes on its float view.  Any other
    support (the periodic wrap bond, a reversed or scattered support, a
    plaquette) has its axes moved to the end in support order, after the batch
    axes, is contracted there as rows times M^T, and is moved back.
    """
    k = len(support)
    batch = arr.shape[1:]
    s0 = support[0]
    if tuple(support) == tuple(range(s0, s0 + k)):
        left, right = d ** s0, d ** (n - s0 - k)
        if not batch and right == 1:
            return (arr.reshape(left, d ** k) @ matrix.T).reshape(-1)
        viewed = arr.dtype == complex and matrix.dtype == float
        # a real term on a complex array, in real arithmetic on its float view, each
        # amplitude two entries of the trailing axis: numpy's mixed-dtype matmul skips BLAS
        flat = np.ascontiguousarray(arr).view(float) if viewed else arr
        rest = flat.size // (left * d ** k)  # the size, not -1, so that an empty batch folds
        out = np.matmul(matrix, flat.reshape(left, d ** k, rest))
        return out.reshape(flat.shape).view(complex) if viewed else out.reshape(arr.shape)
    order = [s for s in range(n) if s not in support] + list(range(n, n + len(batch)))
    order += support
    moved = np.ascontiguousarray(arr.reshape((d,) * n + batch).transpose(order))
    out = (moved.reshape(-1, d ** k) @ matrix.T).reshape(moved.shape).transpose(np.argsort(order))
    return np.ascontiguousarray(out).reshape((d ** n,) + batch)


def hamiltonian_apply(h: HamiltonianSpec, arr: np.ndarray) -> np.ndarray:
    n, d = h.sites.n, h.sites.d
    out = np.zeros_like(arr, dtype=complex if _is_complex(h) or np.iscomplexobj(arr) else float)
    for term in h.terms:
        out += apply_term_array(term.matrix, term.support, arr, n, d)
    return out


def _is_complex(h: HamiltonianSpec) -> bool:
    return any(np.iscomplexobj(t.matrix) for t in h.terms)


def hamiltonian_matrix(h: HamiltonianSpec) -> np.ndarray:
    """The full d^n x d^n matrix, up to DENSE_CUTOFF: the test oracle of block_matrices.

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
    """Lowest eigenpairs, ascending, held per exact block of H: its rows, its columns (the
    indices of its values) and its C-order (rows, columns) eigenvectors.  The iterative
    regime is one block, whose rows and columns are ranges."""

    values: np.ndarray
    residuals: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def columns(self, count: int | None = None) -> np.ndarray:
        """The (dim, count) vectors of the lowest count values (default all); one block's view."""
        count = len(self.values) if count is None else count
        if len(self.blocks) == 1:
            return self.blocks[0][2][:, :count]
        out = np.zeros((len(self.values), count), self.blocks[0][2].dtype)  # dense: dim values
        for rows, cols, vectors in self.blocks:
            if cols[0] < count:  # cols ascend, and most blocks have no value that low
                out[np.ix_(rows, cols[cols < count])] = vectors[:, :np.count_nonzero(cols < count)]
        return out


def _lanczos(matvec: Callable[[np.ndarray], np.ndarray], v0: np.ndarray, k: int,
            which: str, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k eigenpairs at one end of a Hermitian operator, ascending, with residuals.

    One ARPACK solve (tol 1e-10) started from v0, whose dtype sets the
    arithmetic.  Every Ritz pair's residual ||G v - theta v|| must not
    exceed RESIDUAL_TOL, else ConvergenceError.  The solve and the check
    run in single_blas_pool, so no matvec wakes numpy's thread pool.
    """
    dim = v0.shape[0]
    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=v0.dtype)
    with single_blas_pool():
        try:
            theta, vecs = spla.eigsh(op, k=k, which=which, tol=1e-10, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(f"{what} Lanczos did not converge: {exc}") from exc
        order = np.argsort(theta)
        theta, vecs = theta[order], vecs[:, order]
        return theta, vecs, _checked_residuals(matvec(vecs), theta, vecs, what)


def _projection(basis: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> basis basis^dag v, for a vector or a (dim, b) block, in two np.einsum calls.

    np.einsum, not basis @ (basis^dag v): the BLAS products round differently, and
    moved aklt(10)'s spectral gap from 0.36984447242378005 to 0.36984447242378088
    (2 BLAS threads).
    The basis is held once as C-contiguous conjugated rows, and
    basis c = conj(rows^T conj(c)).
    """
    rows = np.conjugate(basis.T, order="C")
    return lambda v: np.einsum("md,m...->d...", rows,
                               np.einsum("md,d...->m...", rows, v).conj()).conj()


def _checked_residuals(applied: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                       what: str) -> np.ndarray:
    """Column norms of G V - V diag(values), given applied = G V (overwritten).

    The Lanczos solves and the iterative spectrum check every column's norm here;
    the dense spectrum checks its packed norms with the same _checked.
    """
    applied -= vectors * values
    return _checked(np.linalg.norm(applied, axis=0), what)


def _checked(residuals: np.ndarray, what: str) -> np.ndarray:
    """residuals, once none exceeds RESIDUAL_TOL; else ConvergenceError."""
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


def term_entries(h: HamiltonianSpec) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows, columns and values of each term's exact-nonzero entries in H, in term order: a
    local entry (a, b) at (offsets[a] + r, offsets[b] + r) for each offset r of the other sites."""
    n, d = h.sites.n, h.sites.d
    index, entries = np.arange(d ** n).reshape((d,) * n), []
    for term in h.terms:
        support = np.array(term.support)
        offsets = d ** (n - 1 - support) @ np.indices((d,) * term.k).reshape(term.k, -1)
        rest = index[tuple(0 if s in term.support else slice(None) for s in range(n))].ravel()
        a, b = np.nonzero(term.matrix)
        entries.append(((offsets[a, None] + rest).ravel(), (offsets[b, None] + rest).ravel(),
                        np.repeat(term.matrix[a, b], rest.size)))
    return entries


def exact_blocks(entries: Sequence[tuple[np.ndarray, ...]], dim: int) -> list[np.ndarray]:
    """Rows of each exact block of H, ascending, in the order of their lowest rows: the
    connected components of the union of the term_entries patterns.  That union is never
    finer than H's own pattern, so every entry of H between two blocks is an exact zero.
    Terms that cancel at an entry of H still join its row and column: the blocks are then
    coarser than H's own components, and a degenerate ground basis can differ from theirs."""
    import scipy.sparse.csgraph  # here: its 1.1-1.5 MB and 5 ms (2-vCPU Xeon) are dense-only
    rows = np.concatenate([rows for rows, _, _ in entries])
    cols = np.concatenate([cols for _, cols, _ in entries])
    pattern = scipy.sparse.coo_array((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)[1]
    blocks = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return sorted(blocks, key=lambda block: block[0])


def block_matrices(entries: Sequence[tuple[np.ndarray, ...]],
                   blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """H on each block, block b of m rows at flat[starts[b]:starts[b] + m * m] in C order:
    each term's entries scattered in once, in term order, onto zeros, as hamiltonian_matrix
    adds them, bit for bit.  Entries between blocks are left out."""
    sizes = np.array([len(rows) for rows in blocks])
    starts, dim = np.cumsum(sizes ** 2) - sizes ** 2, sizes.sum()
    order, owner, place = np.concatenate(blocks), np.empty(dim, np.intp), np.empty(dim, np.intp)
    owner[order] = np.repeat(np.arange(len(blocks)), sizes)  # the block of each row
    place[order] = np.arange(dim) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # its index there
    dtype = complex if any(np.iscomplexobj(values) for _, _, values in entries) else float
    flat = np.zeros(starts[-1] + sizes[-1] ** 2, dtype)
    for rows, cols, values in entries:
        inside = owner[rows] == owner[cols]
        rows, cols, block = rows[inside], cols[inside], owner[rows[inside]]
        flat[starts[block] + place[rows] * sizes[block] + place[cols]] += values[inside]
    return flat, starts


def _block_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a C-order Hermitian matrix, in place; vectors in C order, one per column.

    eigh works in place on the Fortran view of the matrix, conj(block): the
    vectors are conjugated back, into C order (the batched contractions are slow
    on Fortran order).
    """
    # Divide and conquer ("evd") for every block.  MRRR ("evr") is faster on large complex
    # blocks (1024 rows: 672 against 936 ms, medians of 7, 2-vCPU Xeon, 2 BLAS threads), but
    # its vectors are orthonormal to about 1e-12 only, where evd's are to 3e-15: 3.6e-12 on
    # the 729 rows of parent-random(6,3,2,2), 6e-13 and 1.2e-12 on random 512 and 1024 rows.
    values, vectors = scipy.linalg.eigh(block.T, overwrite_a=True, check_finite=False,
                                        driver="evd")
    return values, np.conjugate(vectors, order="C")


def spectrum(h: HamiltonianSpec, count: int | None = None) -> SpectrumData:
    """Lowest eigenpairs of sum_i Q_i; this is where the regime is decided.

    Up to DENSE_CUTOFF, all of them (count is not read): H on each exact block
    (term_entries, exact_blocks, block_matrices) gets one in-place eigh and
    keeps its own vectors, whose columns are where its values fall in the
    ascending order (stable, so a tie keeps the blocks in row order).  Above
    it, the ground space is the common kernel of the terms (ground_kernel):
    its columns are the first, and the lowest max(1, count - deg) states above
    it follow, one Lanczos solve each, on H plus norm_bound times the
    projector onto the kernel and the states found so far, all as one block.
    ValidationError when the kernel is empty (the model is not
    frustration-free); ConvergenceError when a solved value is under
    zero_threshold (a ground state the kernel missed), a kernel state is above
    it, or a residual is too large.

    The residuals come from hamiltonian_apply.  Above the cutoff one call takes
    all the vectors.  Up to it, they are packed: column j of the packed
    vectors, width columns for width the largest block, holds the j-th vector
    of every block on its rows; the rows of block b in packed column j are its
    j-th residual for j < size_b, and for larger j only the leak of the other
    blocks through H.  They are packed and applied one chunk of
    max(width^2, RESIDUAL_CHUNK_FLOOR) // dim columns (at least 1) at a time,
    so that no chunk holds more entries than the largest block's matrix or
    the floor.  Every (block, column) norm must be within RESIDUAL_TOL, so a
    wrong split fails too.  A connected matrix is one chunk, its own vectors.
    """
    dim = h.sites.dim
    check_dim(dim)
    if dim <= DENSE_CUTOFF:
        entries = term_entries(h)
        rows = exact_blocks(entries, dim)
        flat, at = block_matrices(entries, rows)
        del entries  # before any eigh, which sets the peak of a one-block model
        sizes = np.array([len(r) for r in rows])
        starts, width = np.cumsum(sizes) - sizes, sizes.max()
        lone, multi = np.flatnonzero(sizes == 1), np.flatnonzero(sizes > 1)
        lone_rows = np.concatenate(rows)[starts[lone]]
        evals = np.empty(dim)  # in block order, then sorted
        evals[starts[lone]] = flat[at[lone]].real  # a one-row block's eigenpair: its entry and 1
        vectors = [np.ones((1, 1), flat.dtype)] * len(rows)  # one shared, read-only array
        vectors[0].flags.writeable = False
        for b in multi:
            m = sizes[b]
            evals[starts[b]:starts[b] + m], vectors[b] = _block_eigh(
                flat[at[b]:at[b] + m * m].reshape(m, m))
        del flat
        norms = np.empty((len(rows), width))
        step = max(1, max(width ** 2, RESIDUAL_CHUNK_FLOOR) // dim)  # packed columns per chunk
        for j in range(0, width, step):
            if len(rows) == 1:
                packed = vectors[0]  # step >= width == dim: one chunk, the vectors themselves
            else:
                packed = np.zeros((dim, min(step, width - j)), vectors[0].dtype)
                if j == 0:
                    packed[lone_rows, 0] = 1
                for b in multi[sizes[multi] > j]:
                    own = vectors[b][:, j:j + step]
                    packed[rows[b], :own.shape[1]] = own
            # rows of block b in packed column j: its residual for j < size_b, else a leak
            applied = hamiltonian_apply(h, packed)
            lone_applied = applied[lone_rows]  # the one-row norms of np.linalg.norm, bit for bit
            if j == 0:
                lone_applied[:, 0] -= evals[starts[lone]]
            norms[lone, j:j + step] = np.sqrt((lone_applied.conj() * lone_applied).real)
            for b in multi:
                part = applied if sizes[b] == dim else applied[rows[b]]
                own = vectors[b][:, j:j + step]
                part[:, :own.shape[1]] -= own * evals[starts[b] + j:starts[b] + j + own.shape[1]]
                norms[b, j:j + step] = np.linalg.norm(part, axis=0)
            del packed, applied  # freed before the next chunk is packed and applied
        _checked(norms.ravel(), "eigenpair")
        order = np.argsort(evals, kind="stable")
        evals, position = evals[order], np.empty(dim, np.intp)
        position[order] = np.arange(dim)  # the column of each block's value, in block order
        blocks = tuple(zip(rows, np.split(position, starts[1:]), vectors))
        residuals = norms[sizes[:, None] > np.arange(width)][order]
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
        blocks = ((range(dim), range(len(evals)), vectors),)
    return SpectrumData(np.asarray(evals, dtype=float), residuals, blocks)


@dataclass(frozen=True)
class GroundSpaceData:
    """Zero-energy eigenspace of a frustration-free Hamiltonian plus its gap.

    basis is orthonormal, one state per column: the spectrum's first columns.
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
    diagonalizes.  ConvergenceError when the basis is not orthonormal to 1e-10:
    the residuals pass a ground vector returned twice, its Gram matrix does not.
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
    basis = spectrum_data.columns(n_ground)
    skew = float(np.abs(basis.conj().T @ basis - np.eye(n_ground)).max())
    if skew > 1e-10:
        raise ConvergenceError(f"the ground basis is not orthonormal: max|B^H B - I| = {skew:g}")
    return GroundSpaceData(float(values[0]), float(values[n_ground]), basis, h.sites)


def gaussian_filter_deviation(q: float, gs: GroundSpaceData,
                              spectrum_data: SpectrumData) -> float:
    """Operator-norm distance of the filter from the ground projector, given the full spectrum.

    filt - proj is materialized one exact block of H at a time, from the
    block's own eigenvectors and the ground basis on its rows, by two rank-k
    updates into one buffer that one eigvalsh overwrites, all in scipy's BLAS
    (see single_blas_pool); the one-row blocks are their entries, taken in one
    step.  Every entry between two blocks is an exact zero, so the 2-norm of
    the whole is the largest over the blocks.
    """
    if len(spectrum_data.values) < gs.sites.dim:
        raise ValidationError("the spectral filter needs the full spectrum")
    roots, blocks = np.exp(-q * spectrum_data.values ** 2 / 4.0), spectrum_data.blocks
    rank_k = scipy.linalg.blas.get_blas_funcs(
        "herk" if np.iscomplexobj(blocks[0][2]) else "syrk", (blocks[0][2],))
    # a one-row block's vector is 1 and its filt - proj is its one entry w - |g|^2: all at once
    lone = [(rows[0], cols[0]) for rows, cols, _ in blocks if len(rows) == 1]
    lone_rows, lone_cols = np.array(lone, np.intp).reshape(-1, 2).T
    entries = roots[lone_cols] ** 2 - (np.abs(gs.basis[lone_rows]) ** 2).sum(axis=1)
    worst = float(np.abs(entries).max(initial=0.0))
    for rows, cols, vectors in blocks:
        if len(rows) == 1:
            continue
        scaled = vectors * roots[cols]
        # the upper triangle of conj(V) W V^T - conj(G) G^T, V and G the vectors and the
        # ground basis on the rows: conj(filt - proj), Hermitian with the same eigenvalues,
        # so its 2-norm is its largest |eigenvalue|.  The transposed C-order arrays are
        # Fortran-order, so BLAS reads them with no copy
        diff = rank_k(1.0, scaled.T, trans=2)
        diff = rank_k(-1.0, gs.basis[rows].T, beta=1.0, c=diff, trans=2, overwrite_c=1)
        values = scipy.linalg.eigh(diff, lower=False, eigvals_only=True, overwrite_a=True,
                                   check_finite=False, driver="evd")
        worst = max(worst, float(np.abs(values).max()))
    return worst


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
