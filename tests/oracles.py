"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's contraction code:
operators are embedded by explicit index arithmetic and states are
analyzed with plain numpy calls.
"""
from __future__ import annotations

from itertools import product as iter_product

import numpy as np


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


def dense_hamiltonian(h) -> np.ndarray:
    """Full matrix of a HamiltonianSpec via the embedding oracle."""
    n, d = h.sites.n, h.sites.d
    out = np.zeros((h.sites.dim, h.sites.dim), dtype=complex)
    for term in h.terms:
        out += kron_embed(term.matrix, term.support, n, d)
    return out


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
    """Largest ||(1-Y)XYv||^2 - eps(1-eps) over seeded pairs, one pair at a time."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(samples):
        dim = int(rng.integers(2, 33))
        x = random_projector(rng, dim)
        y = random_projector(rng, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        xyv = x @ (y @ v)
        eps = 1.0 - float(np.linalg.norm(xyv) ** 2)
        worst = max(worst, float(np.linalg.norm(xyv - y @ xyv) ** 2) - eps * (1.0 - eps))
    return worst


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
