"""Causality cones, absorption identities, decay, window measurements."""
import json
import tracemalloc

import numpy as np
import pytest

import dl_lab.cli as cli
from dl_lab import correlations
from dl_lab.correlations import (ObservableSpec, causality_cone,
                                 cone_absorption_check, decay_profile,
                                 distinguishing_measurement, entropy_gap_check,
                                 support_distance)
from dl_lab.entanglement import max_product_overlap, subset_entropy
from dl_lab.dl import dl_operator
from dl_lab.errors import ValidationError
from dl_lab.hamiltonian import validate_frustration_free
from dl_lab.models import BUNDLED_MODELS, build_model, site_observable
from dl_lab.states import DENSE_CUTOFF, GroundSpaceData, random_state, spectrum

from oracles import (block_density, dense_connected_correlation, dense_dl_matrix,
                     dense_window_projector, eigvalsh_entropy, kron_embed, max_excluding_rounds)


def observable(model, name, site):
    return ObservableSpec((site,), site_observable(name, model.h.sites.d))


# ---------------------------------------------------------------------------
# causality cones
# ---------------------------------------------------------------------------

def test_cone_saturates(heis6):
    cone = causality_cone(heis6.a, (2,), 6)
    # every term occurs inside the cone in the last of the six rounds
    final_round = cone.inside[-(len(cone.layers) // cone.rounds):]
    assert set().union(*final_round) == set(range(heis6.h.m))


def test_cone_one_round_pyramid_shape(heis6):
    # seed on site 3 of the six-site chain: the first-applied (even) layer
    # contributes one term, the second (odd) layer two
    cone = causality_cone(heis6.a, (3,), 1)
    assert len(cone.inside[0]) == 1
    assert len(cone.inside[1]) == 2
    assert cone.clusters[0] == frozenset({3, 4})
    assert cone.clusters[1] == frozenset({2, 3, 4, 5})


def test_cone_single_layer_never_spreads(pinning6):
    cone = causality_cone(pinning6.a, (2,), 4)
    for members in cone.inside:
        assert members == frozenset({2})


def test_cone_members_monotone_per_round(heis8):
    cone = causality_cone(heis8.a, (4,), 3)
    g = heis8.a.g
    for depth in range(g):
        rounds = [cone.inside[depth + r * g] for r in range(3)]
        for earlier, later in zip(rounds, rounds[1:]):
            assert earlier <= later


def test_cone_width_growth_bounded(heis8):
    k, g = 2, heis8.a.g
    cone = causality_cone(heis8.a, (4,), 3)
    extents = []
    for r in range(3):
        cluster = cone.clusters[(r + 1) * g - 1]
        extents.append(max(cluster) - min(cluster) + 1)
    for before, after in zip(extents, extents[1:]):
        assert after - before <= 2 * (k - 1) * g


def test_cone_outside_occurrences_commute_with_seed(heis6):
    b = observable(heis6, "sx", 2)
    cone = causality_cone(heis6.a, b.support, 2)
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
        causality_cone(heis6.a, (), 1)


@pytest.mark.parametrize("descriptor", [desc for desc in BUNDLED_MODELS
                                        if build_model(desc).sites.is_chain()],
                         ids=lambda desc: desc.label())
def test_cone_search_matches_a_fresh_cone_per_round_count(descriptor):
    # decay_profile's round counts come from one cone grown a round at a time; the oracle
    # grows a fresh cone for each count, and both stop at the same conditions
    a = dl_operator(build_model(descriptor))
    for seed in range(a.h.sites.n):
        for avoid in range(a.h.sites.n):
            assert (correlations._max_excluding_rounds(a, (seed,), (avoid,))
                    == max_excluding_rounds(a, (seed,), (avoid,)))


# ---------------------------------------------------------------------------
# absorption
# ---------------------------------------------------------------------------

def test_absorption_identity_observable(heis6):
    b = ObservableSpec((2,), np.eye(2))
    assert cone_absorption_check(heis6.a, heis6.gs, b, 2) <= 1e-12


def test_absorption_pinning_sigma_x(pinning6):
    b = observable(pinning6, "sx", 1)
    assert cone_absorption_check(pinning6.a, pinning6.gs, b, 2) <= 1e-12


def test_absorption_heisenberg_sigma_z(heis8):
    b = observable(heis8, "sz", 3)
    assert cone_absorption_check(heis8.a, heis8.gs, b, 1) <= 1e-12


def test_every_ground_space_reader_looks_at_every_column(aklt4):
    # only the last of aklt(4)'s 4 ground columns is tilted out of the kernel: a reader
    # of the first column alone would see an untouched ground space
    basis = aklt4.gs.basis.copy()
    basis[:, -1] += 1e-6 * spectrum(aklt4.h).columns(aklt4.gs.degeneracy + 1)[:, -1]
    tilted = GroundSpaceData(0.0, aklt4.gs.gap, basis, aklt4.h.sites)
    b = observable(aklt4, "sx", 0)  # one round from site 0 leaves the terms on 1-2, 2-3 out
    for gs, low in ((aklt4.gs, True), (tilted, False)):
        assert (validate_frustration_free(aklt4.h, gs).max_residual <= 1e-8) == low
        assert (cone_absorption_check(aklt4.a, gs, b, 1) <= 1e-8) == low


def test_absorption_across_corpus(corpus):
    for model in corpus:
        b = observable(model, "sx", model.h.sites.n // 2)
        dev = cone_absorption_check(model.a, model.gs, b, 2)
        assert dev <= 1e-12, model.label


def test_inside_then_outside_factorization(heis8):
    # applying every outside occurrence first and the inside ones after
    # leaves the action on B|ground> unchanged
    from dl_lab.states import apply_term_array

    h, a, gs = heis8.h, heis8.a, heis8.gs
    b = observable(heis8, "sz", 4)
    rounds = 2
    cone = causality_cone(a, b.support, rounds)
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
    corr = dense_connected_correlation(pinning6.gs, x, y)
    assert abs(corr) <= 1e-12


def test_identity_observables_uncorrelated(parent632):
    x = ObservableSpec((0,), np.eye(3))
    y = ObservableSpec((4,), np.eye(3))
    corr = dense_connected_correlation(parent632.gs, x, y)
    assert abs(corr) <= 1e-12


def test_correlation_matches_dense_oracle(pinning6, parent632, aklt6p):
    # every decay_profile row against <XY> - <X><Y> from the embedded matrices
    for model in (pinning6, parent632, aklt6p):
        x = observable(model, "sz", 0)
        family = [observable(model, "sz", s) for s in range(1, model.h.sites.n // 2 + 1)]
        profile = decay_profile(model.a, model.gs, x, family)
        assert [m for m, _, _ in profile.rows] == list(range(1, len(family) + 1))
        for (_, corr, normalized), y in zip(profile.rows, family):
            oracle = abs(dense_connected_correlation(model.gs, x, y))
            assert abs(corr - oracle) < 1e-12, model.label
            assert normalized == pytest.approx(oracle / (x.norm * y.norm), abs=1e-12)


def test_correlation_needs_unique_ground(heis8):
    x = observable(heis8, "sz", 0)
    y = observable(heis8, "sz", 3)
    with pytest.raises(ValidationError, match="unique ground state"):
        decay_profile(heis8.a, heis8.gs, x, [y])


def test_decay_profile_product_ground_skips_fit(pinning6):
    x = observable(pinning6, "sz", 0)
    family = [observable(pinning6, "sz", s) for s in (1, 2, 3, 4)]
    profile = decay_profile(pinning6.a, pinning6.gs, x, family)
    assert profile.fit_skipped
    assert profile.fitted_rate is None
    assert all(corr <= 1e-12 for _, corr, _ in profile.rows)


def test_decay_profile_parent_chain(parent632):
    x = observable(parent632, "sz", 0)
    family = [observable(parent632, "sz", s) for s in (1, 2, 3, 4, 5)]
    profile = decay_profile(parent632.a, parent632.gs, x, family)
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
        decay_profile(parent632.a, parent632.gs, x, family)


def test_support_distance_on_ring(aklt6p):
    assert support_distance(aklt6p.h, (0,), (5,)) == 1
    assert support_distance(aklt6p.h, (0,), (3,)) == 3


# ---------------------------------------------------------------------------
# distinguishing measurement
# ---------------------------------------------------------------------------

def _measure(model, cut):
    overlap = max_product_overlap(model.gs.omega, cut)[0]
    entropy = subset_entropy(model.gs.omega, range(cut - 2, cut + 2))
    return distinguishing_measurement(model.a, cut, 2, gs=model.gs, overlap=overlap,
                                      window_entropy=entropy)


def test_measurement_product_ground(pinning6):
    check = _measure(pinning6, 3)
    assert check.trace_ground == pytest.approx(1.0, abs=1e-10)
    assert check.trace_product == pytest.approx(1.0, abs=1e-10)
    assert check.overlap == pytest.approx(1.0, abs=1e-10)
    assert not check.hypothesis_met
    assert check.identity_deviation <= 1e-10


def test_measurement_entangled_chain(parent632):
    check = _measure(parent632, 3)
    assert check.trace_ground == pytest.approx(1.0, abs=1e-10)
    assert check.hypothesis_met
    assert check.trace_product <= check.bound + 1e-9
    assert check.trace_product < 1.0
    assert check.identity_deviation <= 1e-10


def test_window_measurement_matches_the_dense_projector(unique_open):
    # every window that fits the centre cut, up to the whole chain, against the dense
    # window projector Pi and the partial traces of omega
    for model in unique_open:
        n, d = model.h.sites.n, model.h.sites.d
        c = n // 2
        omega = model.gs.omega.amplitudes
        for l in range(1, min(c, n - c) + 1):
            window = tuple(range(c - l, c + l))
            entropy = subset_entropy(model.gs.omega, window)
            check = distinguishing_measurement(model.a, c, l, gs=model.gs, overlap=1.0,
                                               window_entropy=entropy)
            proj = dense_window_projector(model.h, window)
            rho_win = block_density(omega, c - l, 2 * l, n, d)
            rho_l, rho_r = block_density(omega, c - l, l, n, d), block_density(omega, c, l, n, d)
            label = f"{model.label} l={l}"
            assert check.trace_ground == pytest.approx(np.trace(proj @ rho_win).real,
                                                       abs=1e-12), label
            product = np.trace(proj @ np.kron(rho_l, rho_r)).real
            assert check.trace_product == pytest.approx(product, abs=1e-12), label
            info = eigvalsh_entropy(rho_l) + eigvalsh_entropy(rho_r) - eigvalsh_entropy(rho_win)
            assert check.mutual_information == pytest.approx(info, abs=1e-12), label
            if l % 2:
                assert check.identity_deviation is None
                continue
            halves = np.kron(block_density(omega, 0, c, n, d), block_density(omega, c, n - c, n, d))
            pi = kron_embed(proj, window, n, d)
            evolved = np.linalg.matrix_power(dense_dl_matrix(model.a), l // 2) @ halves
            deviation = abs(np.trace(pi @ evolved).real - np.trace(pi @ halves).real)
            assert check.identity_deviation == pytest.approx(deviation, abs=1e-12), label


def _measurecheck(tmp_path, model: dict, parameters: dict | None = None) -> tuple[int, dict]:
    """Exit status of `measurecheck` through cli.main, and the report's checks by name."""
    doc = {"schema_version": 1, "command": "measurecheck", "model": model,
           "parameters": parameters or {},
           "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    status = cli.main(["measurecheck", "--config", str(path), "--quiet"])
    report = tmp_path / "out" / "report.json"
    checks = json.loads(report.read_text())["checks"] if report.exists() else []
    return status, {c["name"]: c for c in checks}


def test_window_kernel_missing_a_column_fails_the_ground_trace(tmp_path, monkeypatch):
    # the window kernel of parent-random(6,3,2,2) has 4 columns, and the ground state's
    # window weight spreads over them: one fewer misses part of it
    true_kernel = correlations.window_kernel
    monkeypatch.setattr(correlations, "window_kernel",
                        lambda h, window: true_kernel(h, window)[:, :-1])
    model = {"name": "parent-random", "parameters": {"n": 6, "d": 3, "bond": 2, "seed": 2}}
    status, checks = _measurecheck(tmp_path, model)
    assert status == 1
    assert checks["measurement-ground-trace"]["status"] == "fail"


def test_window_above_the_dense_cutoff_is_measured(tmp_path):
    # window 7 on pinning(14) is the whole chain, dimension 16384 > DENSE_CUTOFF; a
    # 16384-square projector or window density would take 4 GiB, the kernel is one column
    assert 2 ** 14 > DENSE_CUTOFF
    tracemalloc.start()
    try:
        status, checks = _measurecheck(tmp_path, {"name": "pinning", "parameters": {"n": 14}},
                                       {"window": 7})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert checks["measurement-ground-trace"]["status"] == "pass"
    assert peak < 100 * 2 ** 20


def test_measurement_ground_trace_across_open_corpus(unique_open):
    for model in unique_open:
        cut = model.h.sites.n // 2
        check = _measure(model, cut)
        assert abs(check.trace_ground - 1.0) <= 1e-10, model.label
        if check.identity_deviation is not None:
            assert check.identity_deviation <= 1e-10, model.label


# the window is refused before its entropy is read, so any value stands in for it

def test_measurement_window_must_fit(parent632):
    with pytest.raises(ValidationError):
        distinguishing_measurement(parent632.a, 1, 2, gs=parent632.gs, overlap=1.0,
                                   window_entropy=0.0)


def test_measurement_rejects_rings(aklt6p):
    with pytest.raises(ValidationError):
        distinguishing_measurement(aklt6p.a, 3, 2, gs=aklt6p.gs, overlap=1.0,
                                   window_entropy=0.0)


# ---------------------------------------------------------------------------
# entropy gap
# ---------------------------------------------------------------------------

def _entropy_gap(model, cut):
    return entropy_gap_check(_measure(model, cut))


def test_entropy_gap_product_ground(pinning6):
    check = _entropy_gap(pinning6, 3)
    assert check.mutual_information == pytest.approx(0.0, abs=1e-10)
    assert check.measurement_divergence == pytest.approx(0.0, abs=1e-10)
    assert check.mutual_information >= check.measurement_divergence - 1e-9
    assert not check.hypothesis_met


def test_entropy_gap_monotone_across_corpus(unique_open):
    for model in unique_open:
        cut = model.h.sites.n // 2
        check = _entropy_gap(model, cut)
        assert check.mutual_information >= check.measurement_divergence - 1e-9, model.label


def test_entropy_gap_threshold_when_hypothesis_met(parent632):
    check = _entropy_gap(parent632, 3)
    assert check.hypothesis_met
    assert check.mutual_information >= check.threshold - 1e-9
    assert check.mutual_information >= 0.0
    assert check.measurement_divergence >= 0.0
