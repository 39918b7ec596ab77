"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's contraction code:
operators are embedded by explicit index arithmetic and states are
analyzed with plain numpy calls.
"""
from __future__ import annotations

import math
from itertools import product as iter_product

import numpy as np

from dl_lab.correlations import causality_cone
from dl_lab.entanglement import StepBoundResult
from dl_lab.runner import NORM_ENERGY_STACK


def kron_embed(matrix: np.ndarray, support, n: int, d: int) -> np.ndarray:
    """Embed a local operator into the full space by index arithmetic."""
    support = tuple(support)
    k = len(support)
    dim = d ** n
    place = [d ** (n - 1 - s) for s in range(n)]
    rest = [s for s in range(n) if s not in support]
    rest_offsets = np.array(
        [sum(v * place[s] for v, s in zip(vals, rest))
         for vals in iter_product(range(d), repeat=len(rest))],
        dtype=int,
    )
    out = np.zeros((dim, dim), dtype=complex)
    local_index = {}
    for row, conf in enumerate(iter_product(range(d), repeat=k)):
        local_index[row] = sum(v * place[s] for v, s in zip(conf, support))
    for a in range(d ** k):
        for b in range(d ** k):
            if matrix[a, b] != 0:
                out[local_index[a] + rest_offsets, local_index[b] + rest_offsets] += matrix[a, b]
    return out


def einsum_apply(matrix: np.ndarray, support, arr: np.ndarray, n: int, d: int) -> np.ndarray:
    """(M x 1_rest) arr as one np.einsum over labelled site axes.

    Site s is axis label s, and the support sites get fresh output labels, so
    no axis is folded, rotated or blocked.  arr may carry trailing batch axes.
    """
    support = list(support)
    k = len(support)
    fresh = list(range(n, n + k))
    out_labels = [fresh[support.index(s)] if s in support else s for s in range(n)]
    batch = arr.shape[1:]
    out = np.einsum(matrix.reshape((d,) * (2 * k)), fresh + support,
                    arr.reshape((d,) * n + batch), list(range(n)) + [Ellipsis],
                    out_labels + [Ellipsis])
    return out.reshape((d ** n,) + batch)


def dense_hamiltonian(h) -> np.ndarray:
    """Full matrix of a HamiltonianSpec via the embedding oracle."""
    n, d = h.sites.n, h.sites.d
    out = np.zeros((h.sites.dim, h.sites.dim), dtype=complex)
    for term in h.terms:
        out += kron_embed(term.matrix, term.support, n, d)
    return out


def components(mat: np.ndarray) -> list[np.ndarray]:
    """Rows of each connected component of the exact-nonzero pattern of mat, ascending.

    Rows i and j are joined when mat[i, j] or mat[j, i] is nonzero.  Each
    component is grown breadth first from its lowest row, through the rows and
    the columns of one boolean (dim, dim) pattern; the components come in the
    order of their lowest rows.
    """
    pattern = mat != 0
    unseen = np.ones(len(mat), bool)
    found = []
    for start in range(len(mat)):
        if not unseen[start]:
            continue
        unseen[start] = False
        frontier, rows = np.array([start]), [np.array([start])]
        while frontier.size:
            reach = pattern[frontier].any(axis=0) | pattern[:, frontier].any(axis=1)
            frontier = np.flatnonzero(reach & unseen)
            unseen[frontier] = False
            rows.append(frontier)
        found.append(np.sort(np.concatenate(rows)))
    return found


def dense_dl_matrix(a) -> np.ndarray:
    """Full matrix of the layered projection operator via the oracle."""
    h = a.h
    n, d = h.sites.n, h.sites.d
    out = np.eye(h.sites.dim, dtype=complex)
    for layer in a.layer_order:
        for idx in layer:
            comp = np.eye(d ** h.terms[idx].k) - h.terms[idx].matrix
            out = kron_embed(comp, h.terms[idx].support, n, d) @ out
    return out


def dense_restricted_norm(a, gs) -> float:
    """Largest singular value of the layered operator on the ground complement (full SVD)."""
    basis = gs.basis
    perp = np.eye(basis.shape[0]) - basis @ basis.conj().T
    return float(np.linalg.svd(dense_dl_matrix(a) @ perp, compute_uv=False)[0])


def dense_filter_deviation(h, q: float, gs) -> float:
    """2-norm (largest singular value) of exp(-q H^2 / 2) minus the ground projector."""
    evals, evecs = np.linalg.eigh(dense_hamiltonian(h))
    filt = (evecs * np.exp(-q * evals ** 2 / 2.0)) @ evecs.conj().T
    basis = gs.basis
    return float(np.linalg.norm(filt - basis @ basis.conj().T, 2))


def dense_window_projector(h, window) -> np.ndarray:
    """Projector onto the common kernel of the terms inside the window, by a dense eigh."""
    n, d = len(window), h.sites.d
    local = np.zeros((d ** n, d ** n), dtype=complex)
    for term in h.terms:
        if set(term.support) <= set(window):
            local += kron_embed(term.matrix, [window.index(s) for s in term.support], n, d)
    evals, evecs = np.linalg.eigh(local)
    basis = evecs[:, evals <= 1e-8]
    return basis @ basis.conj().T


def block_density(psi_amplitudes, start: int, count: int, n: int, d: int) -> np.ndarray:
    """Reduced density of the sites start..start+count-1 by an explicit partial trace."""
    tensor = np.asarray(psi_amplitudes).reshape(d ** start, d ** count, -1)
    return np.einsum("awb,avb->wv", tensor, tensor.conj())


def eigvalsh_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats from the eigenvalues of a density matrix."""
    weights = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    weights = weights[weights > 0]
    return float(-(weights * np.log(weights)).sum())


def schmidt_eigenvalues_by_partial_trace(psi_amplitudes, left_count: int, n: int,
                                         d: int) -> np.ndarray:
    """Reduced-density eigenvalues across a prefix cut, descending."""
    mat = np.asarray(psi_amplitudes).reshape(d ** left_count, d ** (n - left_count))
    rho = mat @ mat.conj().T
    evals = np.linalg.eigvalsh(rho)[::-1]
    return np.clip(evals, 0.0, None)


def random_projector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Projector onto the span of a complex Gaussian (dim, rank), rank drawn in [1, dim)."""
    rank = int(rng.integers(1, dim))
    gauss = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(gauss)
    return q @ q.conj().T


def norm_energy_sweep(seed: int, samples: int) -> float:
    """Largest ||(1-Y)XYv||^2 - eps(1-eps) over seeded pairs, one pair at a time.

    The draws are the run's: every dimension first, then per dimension in
    ascending order, NORM_ENERGY_STACK samples at a time, the ranks of X and Y,
    their Gaussian spans (dim // 2 columns each) and v.  A span of rank r is
    the QR of its first min(r, dim - r) columns alone, and the complement of
    that where r > dim - r.
    """
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 33, samples)
    worst = -np.inf
    for dim in sorted(set(dims.tolist())):
        left = int(np.count_nonzero(dims == dim))
        while left:
            m = min(NORM_ENERGY_STACK, left)
            left -= m
            ranks = rng.integers(1, dim, (2, m))
            gauss = rng.standard_normal((2, 2, m, dim, dim // 2))
            gauss = gauss[0] + 1j * gauss[1]
            vs = rng.standard_normal((2, m, dim))
            vs = vs[0] + 1j * vs[1]
            for i in range(m):
                x, y = (_span_projector(gauss[j, i], int(ranks[j, i])) for j in range(2))
                v = vs[i] / np.linalg.norm(vs[i])
                xyv = x @ (y @ v)
                eps = 1.0 - float(np.linalg.norm(xyv) ** 2)
                worst = max(worst, float(np.linalg.norm(xyv - y @ xyv) ** 2) - eps * (1.0 - eps))
    return worst


def _span_projector(gauss: np.ndarray, rank: int) -> np.ndarray:
    """Projector of rank `rank` from the columns of a (dim, dim // 2) Gaussian."""
    dim = len(gauss)
    q, _ = np.linalg.qr(gauss[:, :min(rank, dim - rank)])
    proj = q @ q.conj().T
    return np.eye(dim) - proj if rank > dim - rank else proj


def sample_feasible_step_distribution(bigD: int, bigK: float, theta: float,
                                      rng: np.random.Generator,
                                      max_blocks: int = 12) -> np.ndarray:
    """A random non-increasing distribution satisfying the tail constraints.

    Random sub-saturating tails define block masses with equal weights per
    block; concentrating a block on its leading entries and sorting the
    result in non-increasing order can only lower every tail, so
    feasibility is preserved.
    """
    tails = [1.0]
    for l in range(1, max_blocks + 1):
        cap = min(bigK * theta ** l, tails[-1])
        tails.append(cap * rng.uniform(0.0, 1.0))
    tails.append(0.0)
    weights: list[float] = []
    sizes = [bigD] + [bigD ** (l + 1) - bigD ** l for l in range(1, max_blocks + 1)]
    for l, size in enumerate(sizes):
        mass = tails[l] - tails[l + 1]
        if mass <= 0:
            continue
        size = min(size, 20000)
        weights.extend([mass / size] * size)
    arr = np.sort(np.asarray(weights))[::-1]
    return arr / arr.sum()


def max_excluding_rounds(h, part, seed, avoid, cap: int = 64) -> int:
    """Largest round count whose cone around `seed` stays clear of `avoid`.

    A fresh causality_cone is grown for every round count from 1 up, so the
    work is quadratic in the rounds; it stops at the first cone that touches
    `avoid`, or after the first that covers every site.
    """
    best = 0
    for rounds in range(1, cap + 1):
        cone = causality_cone(h, part, seed, rounds)
        if cone.clusters[-1] & set(avoid):
            break
        best = rounds
        if len(cone.clusters[-1]) == h.sites.n:
            break
    return best


def step_entropy_bound_per_block(bigD: int, bigK: float, theta: float) -> StepBoundResult:
    """step_entropy_bound with its saturating distribution built one block at a time.

    The head block holds 1 - min(1, K theta), and block l the drop of the tail
    min(1, K theta^l) to the next one, while that tail is above 1e-25.  The loop
    has no cap, so call it only where the tail gets there in a few blocks.
    """
    log_d = math.log(bigD)
    bound = 3.0 * ((math.log(bigK / (1.0 - theta)) + 1.0) / math.log(1.0 / theta) + 2.0) * log_d
    tail = min(1.0, bigK * theta)
    head_mass = 1.0 - tail
    entropy = head_mass * (log_d - math.log(head_mass)) if head_mass > 0 else 0.0
    blocks = [(0, head_mass, log_d)]
    l = 1
    while tail > 1e-25:
        next_tail = min(1.0, bigK * theta ** (l + 1), tail)
        mass = tail - next_tail
        ln_size = l * log_d + math.log(bigD - 1)  # block size D^l (D-1)
        if mass > 0:
            entropy += mass * (ln_size - math.log(mass))
        blocks.append((l, mass, ln_size))
        tail = next_tail
        l += 1
    threshold = 1
    while bigK * theta ** threshold > (1.0 - theta) * theta / math.e:
        threshold += 1
    return StepBoundResult(bound, entropy, threshold, tuple(blocks))
