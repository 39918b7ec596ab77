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
from .entanglement import cut_matrix, density_entropy, reduced_density
from .errors import ValidationError
from .hamiltonian import (HamiltonianSpec, LayerPartition, LocalTerm, SiteSpace,
                          custom_geometry)
from .states import GroundSpaceData, StateVector, apply_term_array, ground_kernel


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

    rounds: int
    layers: tuple[tuple[int, ...], ...]  # term order per depth, first-applied first
    inside: tuple[frozenset[int], ...]  # inside term indices per depth
    clusters: tuple[frozenset[int], ...]  # site cluster after each depth


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
        inside.append(_grow_cone(h, depth_terms, cluster))
        clusters.append(frozenset(cluster))
    return CausalityCone(l, layers, tuple(inside), tuple(clusters))


def _grow_cone(h: HamiltonianSpec, depth_terms, cluster: set[int]) -> frozenset[int]:
    """The terms of one depth inside the cone; cluster grows by their supports in place."""
    members = frozenset(idx for idx in depth_terms if cluster & set(h.terms[idx].support))
    cluster.update(*(h.terms[idx].support for idx in members))
    return members


def cone_absorption_check(h: HamiltonianSpec, a: DLOperator, gs: GroundSpaceData,
                          b: ObservableSpec, l: int) -> float:
    """Max over ground vectors of || A^l B w - Cone_l(B) B w ||, all of them as one batch."""
    cone = causality_cone(h, a.partition, b.support, l)
    inside = [idx for depth, depth_terms in enumerate(cone.layers)
              for idx in depth_terms if idx in cone.inside[depth]]
    seeded = apply_term_array(b.matrix, b.support, gs.basis, h.sites.n, h.sites.d)
    full = seeded
    for _ in range(l):
        full = a.apply_array(full)
    pruned = a.apply_terms(inside, seeded)
    return float(np.linalg.norm(full - pruned, axis=0).max(initial=0.0))


def connected_correlation(gs: GroundSpaceData, x: ObservableSpec,
                          y: ObservableSpec) -> complex:
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
    return value


@dataclass(frozen=True)
class DecayProfile:
    """Normalized correlations by distance with an exponential fit."""

    rows: tuple[tuple[int, float, float], ...]  # (distance, |corr|, normalized)
    fitted_rate: float | None
    fit_skipped: bool
    identity_rounds: tuple[int, ...]
    identity_deviation: float


def decay_profile(h: HamiltonianSpec, gs: GroundSpaceData, x: ObservableSpec,
                  y_family, a: DLOperator) -> DecayProfile:
    """Correlation decay table plus the exact cone rewriting of <X A^l Y>."""
    omega = gs.omega
    distances = [support_distance(h, x.support, y.support) for y in y_family]
    if any(m2 <= m1 for m1, m2 in zip(distances, distances[1:])):
        raise ValidationError("observable distances must be strictly increasing")
    rows = []
    identity_rounds = []
    identity_dev = 0.0
    for y, dist in zip(y_family, distances):
        corr = abs(connected_correlation(gs, x, y))
        rows.append((dist, corr, corr / (x.norm * y.norm)))
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
    usable = [(m, norm) for m, _, norm in rows if norm > 1e-13]  # above the noise floor
    if len(usable) >= 2:
        ms = np.array([m for m, _ in usable], dtype=float)
        logs = np.log(np.array([c for _, c in usable]))
        slope, _ = np.polyfit(ms, logs, 1)
        return DecayProfile(tuple(rows), float(slope), False, tuple(identity_rounds),
                            float(identity_dev))
    return DecayProfile(tuple(rows), None, True, tuple(identity_rounds), float(identity_dev))


def _max_excluding_rounds(h: HamiltonianSpec, part: LayerPartition, seed, avoid) -> int:
    """Largest round count, at most 64, whose cone around `seed` stays clear of `avoid`, from
    one cone grown a round at a time: its cluster after r rounds is causality_cone's for l = r."""
    order, cluster, avoid = application_layers(h, part), set(seed), set(avoid)
    best = 0
    for rounds in range(1, 65):
        for depth_terms in order:
            _grow_cone(h, depth_terms, cluster)
        if cluster & avoid:
            break
        best = rounds
        if len(cluster) == h.sites.n:
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


def _window_sites(h: HamiltonianSpec, cut: int, l: int) -> tuple[int, ...]:
    if h.sites.geometry.kind != "chain-open":
        raise ValidationError("window measurements are defined on open chains")
    if cut - l < 0 or cut + l > h.sites.n:
        raise ValidationError(f"window of half-width {l} at position {cut} exceeds the chain")
    return tuple(range(cut - l, cut + l))


def window_kernel(h: HamiltonianSpec, window: tuple[int, ...]) -> np.ndarray:
    """(d^(2l), w) orthonormal basis B of the common kernel of the terms inside the window:
    states.ground_kernel of the window's sub-Hamiltonian.  B B^dag is its ground projector."""
    inner = [LocalTerm(tuple(window.index(s) for s in t.support), t.matrix, t.is_projector)
             for t in h.terms if set(t.support) <= set(window)]
    if not inner:
        return np.eye(h.sites.d ** len(window))
    return ground_kernel(HamiltonianSpec(SiteSpace(len(window), h.sites.d,
                                                   custom_geometry(())), inner))


def distinguishing_measurement(h: HamiltonianSpec, cut: int, l: int, gs: GroundSpaceData,
                               a: DLOperator, overlap: float,
                               window_entropy: float) -> MeasurementCheck:
    """Build the window measurement and measure its distinguishing probability.

    overlap is the largest product-state overlap of the ground state at the cut, and
    window_entropy is S(rho_win), the entropy of the window's 2l sites.  The measurement
    Pi = B B^dag (window_kernel) and the window's density are never formed:
    Tr(Pi rho_win) = ||B^dag omega||^2.
    """
    if gs.degeneracy != 1:
        raise ValidationError("the measurement pipeline needs a unique ground state")
    window = _window_sites(h, cut, l)
    omega = gs.omega
    d = h.sites.d

    basis = window_kernel(h, window)
    # B^dag on the window axes of a state folded as (d^(cut-l), d^(2l), rest)
    restrict = lambda arr: basis.conj().T @ arr.reshape(d ** (cut - l), d ** (2 * l), -1)
    trace_ground = float(np.linalg.norm(restrict(omega.amplitudes)) ** 2)

    rho_l = reduced_density(omega, window[:l])
    rho_r = reduced_density(omega, window[l:])
    halves = basis.reshape(d ** l, d ** l, -1)
    trace_product = float(np.real(np.einsum("abk,ac,bd,cdk->", halves.conj(), rho_l, rho_r,
                                            halves, optimize=True)))
    info = density_entropy(rho_l) + density_entropy(rho_r) - window_entropy

    delta = 1.0 - a.shrink_bound(gs.gap)
    hypothesis_met = overlap <= (1.0 - delta) ** (l / 4.0)
    bound = 2.0 * (1.0 - delta) ** (l / 2.0)

    identity_dev = None
    if l % 2 == 0:
        identity_dev = _measurement_identity_deviation(a, omega, cut, l, restrict)
    return MeasurementCheck(window, delta, trace_ground, trace_product, overlap,
                            hypothesis_met, bound, identity_dev, info)


def _measurement_identity_deviation(a, omega, cut, l, restrict) -> float:
    """| Tr(Pi A^(l/2) rho_L x rho_R) - Tr(Pi rho_L x rho_R) | over full halves.

    rho_L x rho_R sums s_i^2 s_j^2 |phi><phi| over the products phi = u_i (x) v_j
    of the cut's Schmidt vectors (one thin SVD); Pi enters through B^dag only.
    """
    u, svals, vh = np.linalg.svd(cut_matrix(omega, cut), full_matrices=False)
    weights = svals ** 2
    deviation = 0.0
    for i in np.flatnonzero(weights >= 1e-14):
        for j in np.flatnonzero(weights[i] * weights >= 1e-16):
            phi = np.kron(u[:, i], vh[j])
            evolved = phi
            for _ in range(l // 2):
                evolved = a.apply_array(evolved)
            deviation += weights[i] * weights[j] * np.vdot(restrict(phi),
                                                           restrict(evolved - phi)).real
    return float(abs(deviation))


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
