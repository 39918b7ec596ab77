"""Causality cones, absorption identities, decay, window measurements."""
import numpy as np
import pytest

from dl_lab.correlations import (ObservableSpec, causality_cone,
                                 cone_absorption_check, connected_correlation,
                                 decay_profile, distinguishing_measurement,
                                 entropy_gap_check, support_distance)
from dl_lab.entanglement import CutSpec, max_product_overlap
from dl_lab.errors import ValidationError
from dl_lab.hamiltonian import validate_frustration_free
from dl_lab.models import site_observable
from dl_lab.states import GroundSpaceData, random_state, spectrum

from oracles import kron_embed


def observable(model, name, site):
    return ObservableSpec((site,), site_observable(name, model.h.sites.d))


# ---------------------------------------------------------------------------
# causality cones
# ---------------------------------------------------------------------------

def test_cone_saturates(heis6):
    cone = causality_cone(heis6.h, heis6.a.partition, (2,), 6)
    # every term occurs inside the cone in the last of the six rounds
    final_round = cone.inside[-(len(cone.layers) // cone.rounds):]
    assert set().union(*final_round) == set(range(heis6.h.m))


def test_cone_one_round_pyramid_shape(heis6):
    # seed on site 3 of the six-site chain: the first-applied (even) layer
    # contributes one term, the second (odd) layer two
    cone = causality_cone(heis6.h, heis6.a.partition, (3,), 1)
    assert len(cone.inside[0]) == 1
    assert len(cone.inside[1]) == 2
    assert cone.clusters[0] == frozenset({3, 4})
    assert cone.clusters[1] == frozenset({2, 3, 4, 5})


def test_cone_single_layer_never_spreads(pinning6):
    cone = causality_cone(pinning6.h, pinning6.a.partition, (2,), 4)
    for members in cone.inside:
        assert members == frozenset({2})


def test_cone_members_monotone_per_round(heis8):
    cone = causality_cone(heis8.h, heis8.a.partition, (4,), 3)
    g = heis8.a.g
    for depth in range(g):
        rounds = [cone.inside[depth + r * g] for r in range(3)]
        for earlier, later in zip(rounds, rounds[1:]):
            assert earlier <= later


def test_cone_width_growth_bounded(heis8):
    k, g = 2, heis8.a.g
    cone = causality_cone(heis8.h, heis8.a.partition, (4,), 3)
    extents = []
    for r in range(3):
        cluster = cone.clusters[(r + 1) * g - 1]
        extents.append(max(cluster) - min(cluster) + 1)
    for before, after in zip(extents, extents[1:]):
        assert after - before <= 2 * (k - 1) * g


def test_cone_outside_occurrences_commute_with_seed(heis6):
    b = observable(heis6, "sx", 2)
    cone = causality_cone(heis6.h, heis6.a.partition, b.support, 2)
    psi = random_state(heis6.h.sites, 11)
    for depth, layer in enumerate(cone.layers):
        for idx in layer:
            if idx in cone.inside[depth]:
                continue
            term = ObservableSpec(heis6.h.terms[idx].support, heis6.h.terms[idx].matrix)
            one = term.apply(b.apply(psi))
            two = b.apply(term.apply(psi))
            assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-12


def test_cone_rejects_empty_seed(heis6):
    with pytest.raises(ValidationError):
        causality_cone(heis6.h, heis6.a.partition, (), 1)


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------

def test_absorption_identity_observable(heis6):
    b = ObservableSpec((2,), np.eye(2))
    assert cone_absorption_check(heis6.h, heis6.a, heis6.gs, b, 2) <= 1e-12


def test_absorption_pinning_sigma_x(pinning6):
    b = observable(pinning6, "sx", 1)
    assert cone_absorption_check(pinning6.h, pinning6.a, pinning6.gs, b, 2) <= 1e-12


def test_absorption_heisenberg_sigma_z(heis8):
    b = observable(heis8, "sz", 3)
    assert cone_absorption_check(heis8.h, heis8.a, heis8.gs, b, 1) <= 1e-12


def test_every_ground_space_reader_looks_at_every_column(aklt4):
    # only the last of aklt(4)'s 4 ground columns is tilted out of the kernel: a reader
    # of the first column alone would see an untouched ground space
    basis = aklt4.gs.basis.copy()
    basis[:, -1] += 1e-6 * spectrum(aklt4.h).vectors[:, aklt4.gs.degeneracy]
    tilted = GroundSpaceData(0.0, aklt4.gs.gap, basis, aklt4.h.sites)
    b = observable(aklt4, "sx", 0)  # one round from site 0 leaves the terms on 1-2, 2-3 out
    for gs, low in ((aklt4.gs, True), (tilted, False)):
        assert (validate_frustration_free(aklt4.h, gs).max_residual <= 1e-8) == low
        assert (cone_absorption_check(aklt4.h, aklt4.a, gs, b, 1) <= 1e-8) == low


def test_absorption_across_corpus(corpus):
    for model in corpus:
        b = observable(model, "sx", model.h.sites.n // 2)
        dev = cone_absorption_check(model.h, model.a, model.gs, b, 2)
        assert dev <= 1e-12, model.label


def test_inside_then_outside_factorization(heis8):
    # applying every outside occurrence first and the inside ones after
    # leaves the action on B|ground> unchanged
    from dl_lab.states import apply_term_array

    h, a, gs = heis8.h, heis8.a, heis8.gs
    b = observable(heis8, "sz", 4)
    rounds = 2
    cone = causality_cone(h, a.partition, b.support, rounds)
    n, d = h.sites.n, h.sites.d
    for omega in gs.basis.T[:3]:
        seeded = apply_term_array(b.matrix, b.support, omega, n, d)
        full = seeded
        for _ in range(rounds):
            full = a.apply_array(full)
        reordered = seeded
        for depth, layer in enumerate(cone.layers):  # P_out applied first
            for idx in layer:
                if idx not in cone.inside[depth]:
                    reordered = apply_term_array(a.complements[idx],
                                                 h.terms[idx].support, reordered, n, d)
        for depth, layer in enumerate(cone.layers):  # then P_in
            for idx in layer:
                if idx in cone.inside[depth]:
                    reordered = apply_term_array(a.complements[idx],
                                                 h.terms[idx].support, reordered, n, d)
        assert np.abs(full - reordered).max() < 1e-12


# ---------------------------------------------------------------------------
# connected correlations and decay
# ---------------------------------------------------------------------------

def test_product_ground_correlations_vanish(pinning6):
    x = observable(pinning6, "sz", 0)
    y = observable(pinning6, "sz", 3)
    corr = connected_correlation(pinning6.gs, x, y)
    assert corr.magnitude <= 1e-12


def test_identity_observables_uncorrelated(parent632):
    x = ObservableSpec((0,), np.eye(3))
    y = ObservableSpec((4,), np.eye(3))
    corr = connected_correlation(parent632.gs, x, y)
    assert corr.magnitude <= 1e-12


def test_correlation_matches_dense_oracle(aklt6p):
    x = observable(aklt6p, "sz", 0)
    y = observable(aklt6p, "sz", 2)
    corr = connected_correlation(aklt6p.gs, x, y)
    omega = aklt6p.gs.omega.amplitudes
    x_mat = kron_embed(x.matrix, x.support, 6, 3)
    y_mat = kron_embed(y.matrix, y.support, 6, 3)
    oracle = (omega.conj() @ x_mat @ y_mat @ omega
              - (omega.conj() @ x_mat @ omega) * (omega.conj() @ y_mat @ omega))
    assert abs(corr.value - oracle) < 1e-12


def test_correlation_needs_unique_ground(heis8):
    x = observable(heis8, "sz", 0)
    y = observable(heis8, "sz", 3)
    with pytest.raises(ValidationError):
        connected_correlation(heis8.gs, x, y)


def test_decay_profile_product_ground_skips_fit(pinning6):
    x = observable(pinning6, "sz", 0)
    family = [observable(pinning6, "sz", s) for s in (1, 2, 3, 4)]
    profile = decay_profile(pinning6.h, pinning6.gs, x, family, a=pinning6.a)
    assert profile.fit_skipped
    assert profile.fitted_rate is None
    assert all(corr <= 1e-12 for _, corr, _ in profile.rows)


def test_decay_profile_parent_chain(parent632):
    x = observable(parent632, "sz", 0)
    family = [observable(parent632, "sz", s) for s in (1, 2, 3, 4, 5)]
    profile = decay_profile(parent632.h, parent632.gs, x, family, a=parent632.a)
    assert not profile.fit_skipped
    assert profile.fitted_rate < 0
    assert profile.identity_deviation <= 1e-12
    # close pairs admit no excluding cone; far pairs must be rewritable
    for (m, _, _), rounds in zip(profile.rows, profile.identity_rounds):
        if m >= 3:
            assert rounds >= 1


def test_decay_profile_requires_increasing_distances(parent632):
    x = observable(parent632, "sz", 0)
    family = [observable(parent632, "sz", s) for s in (3, 1)]
    with pytest.raises(ValidationError):
        decay_profile(parent632.h, parent632.gs, x, family, a=parent632.a)


def test_support_distance_on_ring(aklt6p):
    assert support_distance(aklt6p.h, (0,), (5,)) == 1
    assert support_distance(aklt6p.h, (0,), (3,)) == 3


# ---------------------------------------------------------------------------
# distinguishing measurement
# ---------------------------------------------------------------------------

def _measure(model, cut):
    overlap = max_product_overlap(model.gs.omega, cut)[0]
    return distinguishing_measurement(model.h, cut, 2, gs=model.gs, a=model.a, overlap=overlap)


def test_measurement_product_ground(pinning6):
    check = _measure(pinning6, CutSpec.contiguous(3))
    assert check.trace_ground == pytest.approx(1.0, abs=1e-10)
    assert check.trace_product == pytest.approx(1.0, abs=1e-10)
    assert check.overlap == pytest.approx(1.0, abs=1e-10)
    assert not check.hypothesis_met
    assert check.identity_deviation <= 1e-10


def test_measurement_entangled_chain(parent632):
    check = _measure(parent632, CutSpec.contiguous(3))
    assert check.trace_ground == pytest.approx(1.0, abs=1e-10)
    assert check.hypothesis_met
    assert check.trace_product <= check.bound + 1e-9
    assert check.trace_product < 1.0
    assert check.identity_deviation <= 1e-10


def test_measurement_ground_trace_across_open_corpus(unique_open):
    for model in unique_open:
        cut = CutSpec.contiguous(model.h.sites.n // 2)
        check = _measure(model, cut)
        assert abs(check.trace_ground - 1.0) <= 1e-10, model.label
        if check.identity_deviation is not None:
            assert check.identity_deviation <= 1e-10, model.label


def test_measurement_window_must_fit(parent632):
    with pytest.raises(ValidationError):
        _measure(parent632, CutSpec.contiguous(1))


def test_measurement_rejects_rings(aklt6p):
    with pytest.raises(ValidationError):
        _measure(aklt6p, CutSpec.contiguous(3))


# ---------------------------------------------------------------------------
# entropy gap
# ---------------------------------------------------------------------------

def _entropy_gap(model, cut):
    return entropy_gap_check(_measure(model, cut))


def test_entropy_gap_product_ground(pinning6):
    check = _entropy_gap(pinning6, CutSpec.contiguous(3))
    assert check.mutual_information == pytest.approx(0.0, abs=1e-10)
    assert check.measurement_divergence == pytest.approx(0.0, abs=1e-10)
    assert check.mutual_information >= check.measurement_divergence - 1e-9
    assert not check.hypothesis_met


def test_entropy_gap_monotone_across_corpus(unique_open):
    for model in unique_open:
        cut = CutSpec.contiguous(model.h.sites.n // 2)
        check = _entropy_gap(model, cut)
        assert check.mutual_information >= check.measurement_divergence - 1e-9, model.label


def test_entropy_gap_threshold_when_hypothesis_met(parent632):
    check = _entropy_gap(parent632, CutSpec.contiguous(3))
    assert check.hypothesis_met
    assert check.mutual_information >= check.threshold - 1e-9
    assert check.mutual_information >= 0.0
    assert check.measurement_divergence >= 0.0
