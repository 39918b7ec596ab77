"""Schmidt analysis across cuts and the entropy bounds that follow from it.

Covers Schmidt spectra and entropies, rank growth under the layered
projection operator, tail bounds on the ground-state Schmidt spectrum,
the closed-form step-distribution entropy bound, and the certificate
pipeline that ties them together for unique-ground-state chains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dl import DLOperator, dl_bound
from .errors import ValidationError
from .hamiltonian import HamiltonianSpec
from .states import GroundSpaceData, StateVector

RANK_TOL = 1e-10
NORM_TOL = 1e-10
MAX_STEP_BLOCKS = 100000


@dataclass(frozen=True)
class CutSpec:
    """Contiguous bipartition of the sites: [0, position) form the left side."""

    position: int

    @staticmethod
    def contiguous(position: int) -> "CutSpec":
        return CutSpec(position)

    def sides(self, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not (1 <= self.position <= n - 1):
            raise ValidationError(f"cut position must lie in [1, {n - 1}]")
        return tuple(range(self.position)), tuple(range(self.position, n))


def cut_matrix(psi: StateVector, cut: CutSpec) -> np.ndarray:
    """Amplitudes reshaped into a (left, right) matrix for the cut."""
    return subset_matrix(psi, cut.sides(psi.sites.n)[0])


def subset_matrix(psi: StateVector, sites_subset) -> np.ndarray:
    """Amplitudes folded as a (subset, rest) matrix, the rest in ascending site order."""
    n, d = psi.sites.n, psi.sites.d
    subset = tuple(int(s) for s in sites_subset)
    if len(set(subset)) != len(subset) or not subset:
        raise ValidationError("need a non-empty set of distinct sites")
    rest = tuple(i for i in range(n) if i not in subset)
    tensor = np.transpose(psi.amplitudes.reshape((d,) * n), subset + rest)
    return tensor.reshape(d ** len(subset), -1)


def entropy_of_weights(lams: np.ndarray) -> float:
    """Von Neumann entropy in nats with the 0*ln 0 = 0 convention."""
    lams = np.clip(np.asarray(lams, dtype=float), 0.0, None)
    lams = lams[lams > 0]
    return float(-(lams * np.log(lams)).sum()) if lams.size else 0.0


def reduced_density(psi: StateVector, sites_subset) -> np.ndarray:
    """Density matrix on a site subset by summation over the complement."""
    mat = subset_matrix(psi, sites_subset)
    return mat @ mat.conj().T


def density_entropy(rho: np.ndarray) -> float:
    return entropy_of_weights(np.linalg.eigvalsh(rho))


def subset_entropy(psi: StateVector, sites_subset) -> float:
    """Entropy of a site subset from the singular values of the (subset, rest) fold."""
    return entropy_of_weights(np.linalg.svd(subset_matrix(psi, sites_subset),
                                            compute_uv=False) ** 2)


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt coefficients, their squares, rank and entanglement entropy."""

    coefficients: np.ndarray  # descending singular values
    rank: int
    entropy: float

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.coefficients ** 2

    def tail_mass(self, first_excluded: int) -> float:
        """Sum of eigenvalues with 1-based index > first_excluded."""
        return float(self.eigenvalues[first_excluded:].sum())


def schmidt(psi: StateVector, cut: CutSpec, tol: float = RANK_TOL) -> SchmidtData:
    """Schmidt spectrum of a normalized state across the cut."""
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {psi.norm():.12g} is not 1 within {NORM_TOL:g}")
    svals = np.linalg.svd(cut_matrix(psi, cut), compute_uv=False)
    rank = int((svals > tol * svals[0]).sum()) if svals.size and svals[0] > 0 else 0
    return SchmidtData(svals, rank, entropy_of_weights(svals ** 2))


def max_product_overlap(psi: StateVector, cut: CutSpec) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest overlap alpha with any product state across the cut, and a maximizer.

    |<left (x) right|psi>| = alpha.  The SVD is thin, so memory stays O(dim): no
    d^(n-c)-square factor is built on an unbalanced cut.
    """
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise ValidationError(f"state norm {psi.norm():.12g} is not 1 within {NORM_TOL:g}")
    u, svals, vh = np.linalg.svd(cut_matrix(psi, cut), full_matrices=False)
    return float(svals[0]), u[:, 0], vh[0, :]


@dataclass(frozen=True)
class RankGrowthTrace:
    """Schmidt ranks of A^j psi0 with the per-step cap implied by the cut."""

    ranks: tuple[int, ...]
    caps: tuple[int, ...]
    crossing_terms: int


def rank_growth(a: DLOperator, psi0: StateVector, cut: CutSpec, l: int) -> RankGrowthTrace:
    """Track the Schmidt rank of repeated applications of A to a product state."""
    start = schmidt(psi0.normalized(), cut)
    if start.rank != 1:
        raise ValidationError("psi0 must be a product state across the cut")
    h = a.h
    left, _ = cut.sides(h.sites.n)
    left_set = set(left)
    crossings = sum(
        1 for t in h.terms if set(t.support) & left_set and set(t.support) - left_set
    )
    d = h.sites.d
    per_step = d ** (2 * crossings)
    ranks = []
    caps = []
    current = psi0.amplitudes
    for j in range(1, l + 1):
        current = a.apply_array(current)
        state = StateVector(current / np.linalg.norm(current), psi0.sites)
        ranks.append(schmidt(state, cut).rank)
        caps.append(int(min(per_step ** j, h.sites.dim)))
    return RankGrowthTrace(tuple(ranks), tuple(caps), crossings)


def tail_bound_check(data: SchmidtData, d: int, mu: float, delta: float,
                     l_max: int) -> tuple[tuple[int, float, float], ...]:
    """Rows (l, sum_{j > d^(2l)} lambda_j, mu^-2 (1-delta)^(2l)) for l = 1..l_max.

    data is the Schmidt spectrum of the ground state at the cut, mu its largest
    product-state overlap there, d the local dimension.
    """
    if not (0 < mu <= 1) or not (0 < delta < 1):
        raise ValidationError("need mu in (0,1] and delta in (0,1)")
    rows = []
    for l in range(1, l_max + 1):
        keep = d ** (2 * l)
        tail = data.tail_mass(min(keep, len(data.coefficients)))
        bound = (1.0 - delta) ** (2 * l) / mu ** 2
        rows.append((l, tail, bound))
    return tuple(rows)


# ---------------------------------------------------------------------------
# maximal entropy of step distributions with geometric tail constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepBoundResult:
    bound: float
    oracle_entropy: float
    threshold_block: int
    blocks: tuple[tuple[int, float, float], ...]  # (block index, mass, ln block size)


def step_entropy_bound(bigD: int, bigK: float, theta: float) -> StepBoundResult:
    """Closed-form entropy bound for tail-constrained step distributions.

    The oracle builds the saturating distribution explicitly: the head block
    holds indices 1..D, block l holds indices D^l+1..D^(l+1) with equal
    weights, and every tail constraint sum_{j > D^l} lambda_j <= K theta^l
    is met with equality down to K theta^l <= 1e-25; ValidationError when that
    takes more than MAX_STEP_BLOCKS blocks, as a cut tail would lower the entropy.
    """
    if bigD < 2 or bigK < 1 or not (0 < theta < 1):
        raise ValidationError("need D >= 2, K >= 1 and theta in (0, 1)")
    log_d = math.log(bigD)
    bound = 3.0 * ((math.log(bigK / (1.0 - theta)) + 1.0) / math.log(1.0 / theta) + 2.0) * log_d

    head_mass = 1.0 - min(1.0, bigK * theta)  # the tail after the head block is min(1, K theta)
    entropy = head_mass * (log_d - math.log(head_mass)) if head_mass > 0 else 0.0
    # the tails min(1, K theta^l) for l = 1..span: down to 1e-25, or past the block cap
    span = min(int(math.log(1e-25 / bigK) / math.log(theta)) + 2, MAX_STEP_BLOCKS + 1)
    tails = np.minimum(1.0, bigK * theta ** np.arange(1, span + 1))
    count = int(np.count_nonzero(tails > 1e-25))  # blocks l = 1..count
    if count > MAX_STEP_BLOCKS:
        raise ValidationError(f"K theta^l stays above 1e-25 past {MAX_STEP_BLOCKS} blocks")
    masses = tails[:count] - tails[1:count + 1]
    ln_sizes = np.arange(1, count + 1) * log_d + math.log(bigD - 1)  # block size D^l (D-1)
    held = masses > 0
    entropy += float((masses[held] * (ln_sizes[held] - np.log(masses[held]))).sum())
    blocks = [(0, head_mass, log_d)] + list(zip(range(1, count + 1), masses.tolist(),
                                                ln_sizes.tolist()))

    threshold = 1
    while bigK * theta ** threshold > (1.0 - theta) * theta / math.e:
        threshold += 1
    return StepBoundResult(bound, entropy, threshold, tuple(blocks))


# ---------------------------------------------------------------------------
# area-law certificate
# ---------------------------------------------------------------------------

LOG10_OVERFLOW = 300.0


def overlap_entropy_bound_value(mu: float, delta: float, d: int) -> float:
    """Entropy cap implied by a product-state overlap of at least mu."""
    if not (0 < mu <= 1) or not (0 < delta < 1) or d < 2:
        raise ValidationError("need mu in (0,1], delta in (0,1) and d >= 2")
    return (3.0 / delta) * (math.log(1.0 / (mu ** 2 * delta)) + 2.0) * math.log(d)


@dataclass(frozen=True)
class AreaLawCertificate:
    """Measured cut entropy against the overlap-based and gap-only bounds."""

    delta: float
    mu_measured: float
    entropy_measured: float
    overlap_entropy_bound: float
    gap_entropy_bound_log10: float
    gap_entropy_bound: float | None  # None when it overflows double precision
    ell0_log10: float
    worst_case_overlap_log10: float


def area_law_certificate(h: HamiltonianSpec, gs: GroundSpaceData, data: SchmidtData,
                         mu: float) -> AreaLawCertificate:
    """The cut entropy of a unique ground state on a chain against its two caps.

    data is the Schmidt spectrum of the ground state at the cut and mu its
    largest product-state overlap there.  The closed-form constants are those
    of a two-layer chain (f = 2).
    """
    if not h.sites.is_chain():
        raise ValidationError("the certificate pipeline needs a 1D chain")
    if gs.degeneracy != 1:
        raise ValidationError("the certificate pipeline needs a unique ground state")
    d = h.sites.d
    eps = min(gs.gap, 1.0)  # the closed-form constants assume a gap at most 1
    delta = 1.0 - dl_bound(eps, 2.0)
    overlap_bound = overlap_entropy_bound_value(mu, delta, d)

    ell0_log10 = (4.0 / delta) * math.log10(d)
    gap_bound_log10 = (math.log10(10.0 / delta) + ell0_log10 + 2.0 * math.log10(math.log(d)))
    gap_bound = 10.0 ** gap_bound_log10 if gap_bound_log10 < LOG10_OVERFLOW else None
    ell0 = 10.0 ** ell0_log10 if ell0_log10 < LOG10_OVERFLOW else None
    if ell0 is not None:
        worst_overlap_log10 = (-ell0 * math.log10(d)
                               + (ell0 / 4.0) * math.log10(1.0 - delta))
    else:
        worst_overlap_log10 = -math.inf
    return AreaLawCertificate(
        delta=delta,
        mu_measured=mu,
        entropy_measured=data.entropy,
        overlap_entropy_bound=overlap_bound,
        gap_entropy_bound_log10=gap_bound_log10,
        gap_entropy_bound=gap_bound,
        ell0_log10=ell0_log10,
        worst_case_overlap_log10=worst_overlap_log10,
    )


def shifted_cut_check(gs_state: StateVector, cut: CutSpec,
                      l: int) -> tuple[tuple[int, float, float], ...]:
    """Rows (j, alpha_1(k+j), alpha_1(k) * d^|j|) for every |j| <= l, alpha_1 the largest
    product overlap at a cut: its top Schmidt coefficient, one values-only SVD per cut."""
    n, d = gs_state.sites.n, gs_state.sites.d
    k = cut.position
    if k - l < 1 or k + l > n - 1:
        raise ValidationError(f"shifts of {l} around position {k} leave [1, {n - 1}]")
    alphas = {j: float(schmidt(gs_state, CutSpec.contiguous(k + j)).coefficients[0])
              for j in range(-l, l + 1)}
    return tuple((j, alpha, alphas[0] * d ** abs(j)) for j, alpha in alphas.items())
