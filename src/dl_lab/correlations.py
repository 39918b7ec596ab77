"""Causality cones, correlation decay, and the windowed measurement checks.

Everything here exploits the same mechanism: projector occurrences outside
the cone of a local operator commute with it and are absorbed by the ground
state, so repeated layer applications act locally.  That gives exact
absorption identities, an exact rewriting of two-point functions, a window
measurement distinguishing the ground state from its disentangled version,
and the entropy gap that distinguishability forces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dl import DLOperator, application_layers
from .entanglement import CutSpec, density_entropy, reduced_density
from .errors import ValidationError
from .hamiltonian import (HamiltonianSpec, LayerPartition, LocalTerm, SiteSpace,
                          custom_geometry)
from .states import (GroundSpaceData, StateVector, apply_term_array, hamiltonian_matrix,
                     zero_threshold)


@dataclass(frozen=True)
class ObservableSpec:
    """A Hermitian observable on a tuple of sites with its norm cached."""

    support: tuple[int, ...]
    matrix: np.ndarray
    norm: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        mat = np.asarray(self.matrix)
        if np.abs(mat - mat.conj().T).max(initial=0.0) > 1e-12 * max(1.0, np.abs(mat).max()):
            raise ValidationError("observable must be Hermitian")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "norm", float(np.abs(np.linalg.eigvalsh(mat)).max()))

    def apply(self, psi: StateVector) -> StateVector:
        out = apply_term_array(self.matrix, self.support, psi.amplitudes,
                               psi.sites.n, psi.sites.d)
        return StateVector(out, psi.sites)


def support_distance(h: HamiltonianSpec, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return min(h.sites.site_distance(i, j) for i in a for j in b)


@dataclass(frozen=True)
class CausalityCone:
    """Inside/outside split of every projector occurrence in A^rounds.

    Depth 0 is the layer applied first (closest to the state); an occurrence
    is inside exactly when its support meets the cluster grown by the seed
    and by deeper inside occurrences.
    """

    seed_support: tuple[int, ...]
    rounds: int
    layers: tuple[tuple[int, ...], ...]  # term order per depth, first-applied first
    inside: tuple[frozenset[int], ...]  # inside term indices per depth
    clusters: tuple[frozenset[int], ...]  # site cluster after each depth

    def touches(self, sites) -> bool:
        return bool(self.clusters[-1] & set(sites))


def causality_cone(h: HamiltonianSpec, part: LayerPartition, seed, l: int) -> CausalityCone:
    """Grow the cone of a seed support through l rounds of layer applications."""
    seed = tuple(int(s) for s in seed)
    if not seed:
        raise ValidationError("the seed support must be non-empty")
    if l < 1:
        raise ValidationError("need at least one round")
    order = application_layers(h, part)
    layers = order * l
    cluster: set[int] = set(seed)
    inside: list[frozenset[int]] = []
    clusters: list[frozenset[int]] = []
    for depth_terms in layers:
        members = {idx for idx in depth_terms if cluster & set(h.terms[idx].support)}
        for idx in members:
            cluster |= set(h.terms[idx].support)
        inside.append(frozenset(members))
        clusters.append(frozenset(cluster))
    return CausalityCone(seed, l, layers, tuple(inside), tuple(clusters))


def cone_absorption_check(h: HamiltonianSpec, a: DLOperator, gs: GroundSpaceData,
                          b: ObservableSpec, l: int) -> float:
    """Max over ground vectors of || A^l B w - Cone_l(B) B w ||."""
    cone = causality_cone(h, a.partition, b.support, l)
    inside = [idx for depth, depth_terms in enumerate(cone.layers)
              for idx in depth_terms if idx in cone.inside[depth]]
    worst = 0.0
    for omega in gs.basis.T:
        seeded = apply_term_array(b.matrix, b.support, omega, h.sites.n, h.sites.d)
        full = seeded
        for _ in range(l):
            full = a.apply_array(full)
        pruned = a.apply_terms(inside, seeded)
        worst = max(worst, float(np.linalg.norm(full - pruned)))
    return worst


@dataclass(frozen=True)
class CorrelationValue:
    value: complex
    magnitude: float
    real: float


def connected_correlation(gs: GroundSpaceData, x: ObservableSpec,
                          y: ObservableSpec) -> CorrelationValue:
    """<XY> - <X><Y> in the unique ground state."""
    if gs.degeneracy != 1:
        raise ValidationError("connected correlations need a unique ground state")
    omega = gs.omega
    y_omega = y.apply(omega)
    xy = omega.inner(x.apply(y_omega))
    x_bar = omega.inner(x.apply(omega))
    y_bar = omega.inner(y_omega)
    value = xy - x_bar * y_bar
    if not (set(x.support) & set(y.support)):
        if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
            raise ValidationError(
                f"expected a real correlation for disjoint supports, got {value:g}"
            )
    return CorrelationValue(value, abs(value), value.real)


@dataclass(frozen=True)
class DecayProfile:
    """Normalized correlations by distance with an exponential fit."""

    rows: tuple[tuple[int, float, float], ...]  # (distance, |corr|, normalized)
    fitted_rate: float | None
    fit_skipped: bool
    identity_rounds: tuple[int, ...]
    identity_deviation: float


def decay_profile(h: HamiltonianSpec, gs: GroundSpaceData, x: ObservableSpec,
                  y_family, a: DLOperator, noise_floor: float = 1e-13) -> DecayProfile:
    """Correlation decay table plus the exact cone rewriting of <X A^l Y>."""
    omega = gs.omega
    distances = [support_distance(h, x.support, y.support) for y in y_family]
    if any(m2 <= m1 for m1, m2 in zip(distances, distances[1:])):
        raise ValidationError("observable distances must be strictly increasing")
    rows = []
    identity_rounds = []
    identity_dev = 0.0
    for y, dist in zip(y_family, distances):
        corr = connected_correlation(gs, x, y)
        rows.append((dist, corr.magnitude, corr.magnitude / (x.norm * y.norm)))
        rounds = _max_excluding_rounds(h, a.partition, y.support, x.support)
        if rounds >= 1:
            identity_rounds.append(rounds)
            y_omega = y.apply(omega).amplitudes
            for _ in range(rounds):
                y_omega = a.apply_array(y_omega)
            lhs = np.vdot(omega.amplitudes, x.apply(StateVector(y_omega, omega.sites)).amplitudes)
            xy = omega.inner(x.apply(y.apply(omega)))
            identity_dev = max(identity_dev, abs(lhs - xy))
        else:
            identity_rounds.append(0)
    usable = [(m, norm) for m, _, norm in rows if norm > noise_floor]
    if len(usable) >= 2:
        ms = np.array([m for m, _ in usable], dtype=float)
        logs = np.log(np.array([c for _, c in usable]))
        slope, _ = np.polyfit(ms, logs, 1)
        return DecayProfile(tuple(rows), float(slope), False, tuple(identity_rounds),
                            float(identity_dev))
    return DecayProfile(tuple(rows), None, True, tuple(identity_rounds), float(identity_dev))


def _max_excluding_rounds(h: HamiltonianSpec, part: LayerPartition, seed, avoid,
                          cap: int = 64) -> int:
    """Largest round count whose cone around `seed` stays clear of `avoid`."""
    best = 0
    for rounds in range(1, cap + 1):
        cone = causality_cone(h, part, seed, rounds)
        if cone.touches(avoid):
            break
        best = rounds
        if len(cone.clusters[-1]) == h.sites.n:
            break
    return best


# ---------------------------------------------------------------------------
# windowed distinguishing measurement and the entropy gap it forces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementCheck:
    """Window ground projector as a test separating rho from rho_L x rho_R."""

    window: tuple[int, ...]
    delta: float
    trace_ground: float
    trace_product: float
    overlap: float
    hypothesis_met: bool
    bound: float
    identity_deviation: float | None  # None for odd l
    mutual_information: float  # S(rho_L) + S(rho_R) - S(rho) on the window halves


def _window_sites(h: HamiltonianSpec, cut: CutSpec, l: int) -> tuple[int, ...]:
    if h.sites.geometry.kind != "chain-open":
        raise ValidationError("window measurements are defined on open chains")
    n = h.sites.n
    c = cut.position
    if c - l < 0 or c + l > n:
        raise ValidationError(f"window of half-width {l} at position {c} exceeds the chain")
    return tuple(range(c - l, c + l))


def window_ground_projector(h: HamiltonianSpec, window: tuple[int, ...]) -> np.ndarray:
    """Projector onto the common ground space of the terms inside the window."""
    inner = [LocalTerm(tuple(window.index(s) for s in t.support), t.matrix, t.is_projector)
             for t in h.terms if set(t.support) <= set(window)]
    if not inner:
        return np.eye(h.sites.d ** len(window))
    local = HamiltonianSpec(SiteSpace(len(window), h.sites.d, custom_geometry(())), inner)
    evals, evecs = np.linalg.eigh(hamiltonian_matrix(local).astype(complex))
    keep = evals <= zero_threshold(local)
    basis = evecs[:, keep]
    return basis @ basis.conj().T


def distinguishing_measurement(h: HamiltonianSpec, cut: CutSpec, l: int, gs: GroundSpaceData,
                               a: DLOperator, overlap: float,
                               rho_win: np.ndarray | None = None) -> MeasurementCheck:
    """Build the window measurement and measure its distinguishing probability.

    overlap is the largest product-state overlap of the ground state at the cut;
    rho_win, if given, its reduced density on the 2l sites around the cut.
    """
    if gs.degeneracy != 1:
        raise ValidationError("the measurement pipeline needs a unique ground state")
    window = _window_sites(h, cut, l)
    omega = gs.omega
    c = cut.position

    proj = window_ground_projector(h, window)
    rho_win = reduced_density(omega, window) if rho_win is None else rho_win
    trace_ground = float(np.real(np.trace(proj @ rho_win)))

    rho_l = reduced_density(omega, tuple(range(c - l, c)))
    rho_r = reduced_density(omega, tuple(range(c, c + l)))
    trace_product = float(np.real(np.trace(proj @ np.kron(rho_l, rho_r))))
    info = density_entropy(rho_l) + density_entropy(rho_r) - density_entropy(rho_win)

    delta = 1.0 - a.shrink_bound(gs.gap)
    hypothesis_met = overlap <= (1.0 - delta) ** (l / 4.0)
    bound = 2.0 * (1.0 - delta) ** (l / 2.0)

    identity_dev = None
    if l % 2 == 0:
        identity_dev = _measurement_identity_deviation(h, a, omega, proj, window, c, l)
    return MeasurementCheck(window, delta, trace_ground, trace_product, overlap,
                            hypothesis_met, bound, identity_dev, info)


def _measurement_identity_deviation(h, a, omega, proj, window, c, l) -> float:
    """| Tr(Pi A^(l/2) rho_L x rho_R) - Tr(Pi rho_L x rho_R) | over full halves."""
    n, d = h.sites.n, h.sites.d
    rho_left = reduced_density(omega, tuple(range(c)))
    rho_right = reduced_density(omega, tuple(range(c, n)))
    pl, ul = np.linalg.eigh(rho_left)
    pr, ur = np.linalg.eigh(rho_right)
    with_proj = 0.0
    with_both = 0.0
    for i in range(len(pl)):
        if pl[i] < 1e-14:
            continue
        for j in range(len(pr)):
            weight = pl[i] * pr[j]
            if weight < 1e-16:
                continue
            phi = np.kron(ul[:, i], ur[:, j])
            proj_phi = apply_term_array(proj, window, phi, n, d)
            evolved = phi
            for _ in range(l // 2):
                evolved = a.apply_array(evolved)
            with_both += weight * np.real(np.vdot(proj_phi, evolved))
            with_proj += weight * np.real(np.vdot(proj_phi, phi))
    return float(abs(with_both - with_proj))


@dataclass(frozen=True)
class EntropyGapCheck:
    """Mutual information across the cut against the measurement divergence."""

    mutual_information: float
    measurement_divergence: float
    threshold: float
    hypothesis_met: bool


def entropy_gap_check(measurement: MeasurementCheck) -> EntropyGapCheck:
    """The window mutual information against ln(1/alpha) and the linear threshold."""
    l = len(measurement.window) // 2
    alpha = max(measurement.trace_product, 1e-300)  # benign divergence clamp
    divergence = math.log(1.0 / alpha)
    threshold = (measurement.delta / 2.0) * l - 1.0
    return EntropyGapCheck(measurement.mutual_information, divergence, threshold,
                           measurement.hypothesis_met)
