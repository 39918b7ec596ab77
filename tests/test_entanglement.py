"""Schmidt machinery, tail bounds, step-entropy bound, area-law certificates."""
import math
import tracemalloc

import numpy as np
import pytest

from dl_lab.dl import dl_bound
from dl_lab.entanglement import (CutSpec, area_law_certificate, density_entropy,
                                 max_product_overlap, overlap_entropy_bound_value,
                                 rank_growth, reduced_density, schmidt,
                                 shifted_cut_check, step_entropy_bound,
                                 tail_bound_check, entropy_of_weights)
from dl_lab.errors import ValidationError
from dl_lab.hamiltonian import SiteSpace, chain_geometry
from dl_lab.states import StateVector, product_state, random_state

from oracles import (sample_feasible_step_distribution, schmidt_eigenvalues_by_partial_trace,
                     step_entropy_bound_per_block)


def qubits(n):
    return SiteSpace(n, 2, chain_geometry())


def bell_state():
    amps = np.zeros(4)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return StateVector(amps, qubits(2))


# ---------------------------------------------------------------------------
# schmidt decomposition
# ---------------------------------------------------------------------------

def test_schmidt_bell_state():
    data = schmidt(bell_state(), CutSpec.contiguous(1))
    assert np.allclose(data.eigenvalues[:2], [0.5, 0.5], atol=1e-12)
    assert data.rank == 2
    assert data.entropy == pytest.approx(math.log(2), abs=1e-12)


def test_schmidt_product_state():
    rng = np.random.default_rng(4)
    locals_ = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 2))]
    psi = product_state(qubits(3), locals_)
    data = schmidt(psi, CutSpec.contiguous(1))
    assert data.rank == 1
    assert data.entropy == pytest.approx(0.0, abs=1e-12)
    # the largest overlap with a product state is the top Schmidt coefficient
    assert data.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_rejects_unnormalized():
    psi = StateVector(np.ones(4), qubits(2))
    with pytest.raises(ValidationError):
        schmidt(psi, CutSpec.contiguous(1))


def test_schmidt_aklt_ring_spectrum(aklt6p):
    omega = aklt6p.gs.omega
    for position in (1, 2, 3):
        data = schmidt(omega, CutSpec.contiguous(position))
        assert data.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)
        # oracle: eigenvalues of the reduced density matrix by partial trace
        oracle = schmidt_eigenvalues_by_partial_trace(omega.amplitudes, position, 6, 3)
        assert np.abs(data.eigenvalues - oracle[:len(data.eigenvalues)]).max() < 1e-10
        # entropy cannot exceed the log of the support size
        assert data.entropy <= math.log(data.rank) + 1e-9
    center = schmidt(omega, CutSpec.contiguous(3))
    assert center.rank == 4
    assert center.entropy == pytest.approx(1.3783153025316839, abs=1e-9)


def test_cut_validation():
    psi = random_state(qubits(3), 0)
    for position in (0, 3):
        with pytest.raises(ValidationError):
            schmidt(psi, CutSpec.contiguous(position))


# ---------------------------------------------------------------------------
# maximal product overlap
# ---------------------------------------------------------------------------

def test_overlap_product_state_is_one():
    rng = np.random.default_rng(5)
    locals_ = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 2))]
    psi = product_state(qubits(4), locals_)
    alpha, _, _ = max_product_overlap(psi, CutSpec.contiguous(2))
    assert alpha == pytest.approx(1.0, abs=1e-12)


def test_overlap_bell_state():
    alpha, left, right = max_product_overlap(bell_state(), CutSpec.contiguous(1))
    assert alpha == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    trial = np.kron(left, right)
    assert abs(np.vdot(trial, bell_state().amplitudes)) == pytest.approx(alpha, abs=1e-12)


def test_overlap_matches_dense_svd(heis6):
    vec = heis6.gs.omega
    alpha, _, _ = max_product_overlap(vec, CutSpec.contiguous(3))
    oracle = np.linalg.svd(vec.amplitudes.reshape(8, 8), compute_uv=False)[0]
    assert alpha == pytest.approx(oracle, abs=1e-12)


def test_overlap_unbalanced_cut_returns_thin_pair():
    psi = random_state(qubits(10), np.random.default_rng(11))
    alpha, left, right = max_product_overlap(psi, CutSpec.contiguous(2))
    assert left.shape == (4,) and right.shape == (256,)
    assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(np.kron(left, right), psi.amplitudes)) == pytest.approx(alpha, abs=1e-12)
    oracle = np.linalg.svd(psi.amplitudes.reshape(4, 256), compute_uv=False)[0]
    assert alpha == pytest.approx(oracle, abs=1e-12)


def test_overlap_memory_is_linear_in_dim():
    # a full SVD of the (2, 2048) cut matrix would allocate a 2048 x 2048 complex vh (64 MB)
    psi = random_state(qubits(12), np.random.default_rng(12))
    tracemalloc.start()
    try:
        max_product_overlap(psi, CutSpec.contiguous(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_fact1_no_trial_beats_best_rank_overlap():
    rng = np.random.default_rng(9)
    psi = random_state(qubits(6), rng)
    cut = CutSpec.contiguous(3)
    data = schmidt(psi, cut)
    for r in (1, 2, 4):
        best = np.sqrt(data.eigenvalues[:r].sum())  # the best rank-r overlap
        for _ in range(300):
            parts = rng.standard_normal((r, 2, 8)) + 1j * rng.standard_normal((r, 2, 8))
            trial = sum(np.kron(parts[i, 0], parts[i, 1]) for i in range(r))
            trial /= np.linalg.norm(trial)
            assert abs(np.vdot(trial, psi.amplitudes)) <= best + 1e-10


# ---------------------------------------------------------------------------
# rank growth
# ---------------------------------------------------------------------------

def test_rank_growth_pinning_stays_product(pinning6):
    psi0 = _random_product(pinning6.h.sites, 3)
    trace = rank_growth(pinning6.a, psi0, CutSpec.contiguous(3), 3)
    assert trace.crossing_terms == 0
    assert trace.ranks == (1, 1, 1)
    assert all(r <= c for r, c in zip(trace.ranks, trace.caps))


def test_rank_growth_qubit_chain(heis8):
    psi0 = _random_product(heis8.h.sites, 7)
    trace = rank_growth(heis8.a, psi0, CutSpec.contiguous(4), 2)
    assert trace.crossing_terms == 1
    assert trace.caps == (4, 16)
    assert all(r <= c for r, c in zip(trace.ranks, trace.caps))


def test_rank_growth_aklt_open(aklt4):
    psi0 = _random_product(aklt4.h.sites, 11)
    trace = rank_growth(aklt4.a, psi0, CutSpec.contiguous(2), 1)
    assert trace.caps == (9,)
    assert trace.ranks[0] <= 9


def test_rank_growth_ring_counts_two_crossings(aklt6p):
    psi0 = _random_product(aklt6p.h.sites, 13)
    trace = rank_growth(aklt6p.a, psi0, CutSpec.contiguous(3), 1)
    assert trace.crossing_terms == 2
    assert all(r <= c for r, c in zip(trace.ranks, trace.caps))


def test_rank_growth_needs_product_start(heis8):
    with pytest.raises(ValidationError):
        rank_growth(heis8.a, random_state(heis8.h.sites, 0), CutSpec.contiguous(4), 2)


def _random_product(sites, seed):
    rng = np.random.default_rng(seed)
    locals_ = []
    for _ in range(sites.n):
        vec = rng.standard_normal(sites.d) + 1j * rng.standard_normal(sites.d)
        locals_.append(vec / np.linalg.norm(vec))
    return product_state(sites, locals_)


# ---------------------------------------------------------------------------
# schmidt tails
# ---------------------------------------------------------------------------

def test_tail_rank_one_ground(pinning6):
    omega = pinning6.gs.omega
    rows = tail_bound_check(schmidt(omega, CutSpec.contiguous(3)), 2, mu=1.0, delta=0.12,
                            l_max=4)
    assert all(tail == 0.0 for _, tail, _ in rows)
    assert all(tail <= bound + 1e-9 for _, tail, bound in rows)


def test_tail_bound_unique_models(unique_1d):
    for model in unique_1d:
        omega = model.gs.omega
        cut = CutSpec.contiguous(model.h.sites.n // 2)
        mu, _, _ = max_product_overlap(omega, cut)
        delta = 1.0 - dl_bound(model.gs.gap, 2.0)
        if model.a.g == 1:
            delta = 0.5  # single-layer models project exactly; any rate works
        rows = tail_bound_check(schmidt(omega, cut), model.h.sites.d, mu, delta, 4)
        assert all(tail <= bound + 1e-9 for _, tail, bound in rows), model.label


def test_tail_exhaustion_is_zero(parent632):
    omega = parent632.gs.omega
    data = schmidt(omega, CutSpec.contiguous(3))
    # d^(2l) for l=2 is 81 >= every possible rank of a 27x27 cut matrix
    assert data.tail_mass(81) == 0.0


# ---------------------------------------------------------------------------
# step-distribution entropy bound
# ---------------------------------------------------------------------------

def test_step_bound_reference_value():
    result = step_entropy_bound(2, 1.0, 0.5)
    assert result.bound == pytest.approx(9.238324625039509, abs=1e-9)
    assert result.oracle_entropy <= result.bound


def test_step_bound_threshold_block_brackets():
    for big_k, theta in ((1.0, 0.5), (2.0, 0.3), (10.0, 0.7), (1.0, 0.05)):
        result = step_entropy_bound(3, big_k, theta)
        lower = math.log(math.e * big_k / (theta * (1 - theta))) / math.log(1 / theta)
        assert lower - 1e-9 <= result.threshold_block <= lower + 1 + 1e-9


def test_step_bound_oracle_below_bound_on_grid():
    for big_d in (2, 3, 5):
        for big_k in (1.0, 4.0, 50.0):
            for theta in (0.05, 0.2, 0.5, 0.8, 0.95):
                result = step_entropy_bound(big_d, big_k, theta)
                assert result.oracle_entropy <= result.bound + 1e-9


def test_step_bound_oracle_saturates_constraints():
    result = step_entropy_bound(2, 1.0, 0.5)
    # masses below each boundary must match the constraint value exactly
    tail = 1.0 - result.blocks[0][1]
    assert tail == pytest.approx(0.5, abs=1e-12)


def test_random_feasible_distributions_below_bound():
    rng = np.random.default_rng(23)
    for big_d, big_k, theta in ((2, 1.0, 0.5), (3, 2.0, 0.4), (4, 1.5, 0.7)):
        bound = step_entropy_bound(big_d, big_k, theta).bound
        for _ in range(200):
            lams = sample_feasible_step_distribution(big_d, big_k, theta, rng,
                                                     max_blocks=8)
            # verify feasibility independently before using the sample
            for l in range(1, 6):
                boundary = big_d ** l
                assert lams[boundary:].sum() <= big_k * theta ** l + 1e-12
            assert entropy_of_weights(lams) <= bound + 1e-9


@pytest.mark.parametrize("big_d", [2, 3, 4, 5])
def test_step_bound_matches_per_block_oracle(big_d):
    for big_k in (1.0, 2.0, 4.0, 10.0, 50.0):
        for theta in np.round(np.arange(0.05, 0.951, 0.05), 2).tolist():
            result = step_entropy_bound(big_d, big_k, theta)
            oracle = step_entropy_bound_per_block(big_d, big_k, theta)
            assert result.bound == oracle.bound
            assert result.threshold_block == oracle.threshold_block
            assert len(result.blocks) == len(oracle.blocks)
            got, want = np.array(result.blocks), np.array(oracle.blocks)
            assert (got[:, 0] == want[:, 0]).all() and (got[:, 2] == want[:, 2]).all()
            assert np.abs(got[:, 1] - want[:, 1]).max() <= 1e-15
            assert result.oracle_entropy == pytest.approx(oracle.oracle_entropy, rel=1e-12)


def test_step_bound_distribution_has_all_its_mass():
    # 1e-25 is reached after about 57500 blocks at theta = 0.999; none is dropped
    masses = np.array(step_entropy_bound(2, 1.0, 0.999).blocks)[:, 1]
    assert abs(masses.sum() - 1.0) <= 1e-12


def test_step_bound_refuses_a_tail_it_would_have_to_cut():
    # about 575600 blocks before K theta^l <= 1e-25; a distribution cut at the block
    # cap would miss mass 5e-5 and understate its entropy
    with pytest.raises(ValidationError, match="past 100000 blocks"):
        step_entropy_bound(2, 1.0, 0.9999)


def test_step_bound_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        step_entropy_bound(1, 1.0, 0.5)
    with pytest.raises(ValidationError):
        step_entropy_bound(2, 0.5, 0.5)
    with pytest.raises(ValidationError):
        step_entropy_bound(2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# area-law certificate
# ---------------------------------------------------------------------------

def test_overlap_bound_arithmetic_regression():
    value = overlap_entropy_bound_value(0.5, 0.126418, 2)
    assert value == pytest.approx(89.71999162938293, abs=1e-9)


def _at_cut(model, position):
    """Schmidt data and largest product overlap of the first ground vector at a cut."""
    omega = model.gs.omega
    cut = CutSpec.contiguous(position)
    return schmidt(omega, cut), max_product_overlap(omega, cut)[0]


def test_certificate_product_ground(pinning6):
    cert = area_law_certificate(pinning6.h, pinning6.gs, *_at_cut(pinning6, 3))
    assert cert.mu_measured == pytest.approx(1.0, abs=1e-10)
    assert cert.entropy_measured == pytest.approx(0.0, abs=1e-10)
    assert cert.entropy_measured <= cert.overlap_entropy_bound + 1e-9
    assert (cert.entropy_measured <= 0
            or math.log10(cert.entropy_measured) <= cert.gap_entropy_bound_log10)


def test_certificate_entangled_models(aklt6p, parent632):
    for model in (aklt6p, parent632):
        cert = area_law_certificate(model.h, model.gs, *_at_cut(model, 3))
        assert cert.entropy_measured <= cert.overlap_entropy_bound + 1e-9, model.label
        assert (cert.entropy_measured <= 0
                or math.log10(cert.entropy_measured) <= cert.gap_entropy_bound_log10), \
            model.label
        assert cert.delta <= 1 / 6 + 1e-12
        assert math.isfinite(cert.gap_entropy_bound_log10)
        assert cert.worst_case_overlap_log10 < 0


def test_certificate_requires_unique_ground(heis8):
    with pytest.raises(ValidationError):
        area_law_certificate(heis8.h, heis8.gs, *_at_cut(heis8, 4))


def test_certificate_requires_chain(toric22):
    with pytest.raises(ValidationError):
        area_law_certificate(toric22.h, toric22.gs, *_at_cut(toric22, 4))


# ---------------------------------------------------------------------------
# shifted cuts
# ---------------------------------------------------------------------------

def test_shifted_cut_zero_shift_is_equality(parent632):
    omega = parent632.gs.omega
    (j, alpha, cap), = shifted_cut_check(omega, CutSpec.contiguous(3), 0)
    assert j == 0
    assert alpha == pytest.approx(cap, abs=1e-12)


def test_shifted_cut_product_ground(pinning6):
    omega = pinning6.gs.omega
    rows = shifted_cut_check(omega, CutSpec.contiguous(3), 2)
    assert all(alpha <= cap + 1e-10 for _, alpha, cap in rows)


def test_shifted_cut_entangled_models(aklt6p, parent632):
    for model in (aklt6p, parent632):
        omega = model.gs.omega
        rows = shifted_cut_check(omega, CutSpec.contiguous(3), 2)
        assert all(alpha <= cap + 1e-10 for _, alpha, cap in rows), model.label


def test_shifted_cut_out_of_range(parent632):
    omega = parent632.gs.omega
    with pytest.raises(ValidationError):
        shifted_cut_check(omega, CutSpec.contiguous(1), 2)


# ---------------------------------------------------------------------------
# windows: subadditivity and the tail chain inequality
# ---------------------------------------------------------------------------

def test_window_entropy_subadditive(unique_1d):
    for model in unique_1d:
        omega = model.gs.omega
        n = model.h.sites.n
        c = n // 2
        for l in (1, 2):
            window = tuple(range(c - l, c + l))
            s_window = density_entropy(reduced_density(omega, window))
            s_left = density_entropy(reduced_density(omega, window[:l]))
            s_right = density_entropy(reduced_density(omega, window[l:]))
            assert s_window <= s_left + s_right + 1e-9, model.label


def test_tail_chain_inequality(unique_1d):
    # mu / sqrt(mu^2 + (1-delta)^(2l)) <= sqrt(sum of the first d^(2l) weights)
    for model in unique_1d:
        if model.a.g != 2:
            continue
        omega = model.gs.omega
        cut = CutSpec.contiguous(model.h.sites.n // 2)
        data = schmidt(omega, cut)
        mu, _, _ = max_product_overlap(omega, cut)
        delta = 1.0 - dl_bound(model.gs.gap, 2.0)
        d = model.h.sites.d
        for l in (1, 2, 3):
            keep = min(d ** (2 * l), len(data.coefficients))
            head = math.sqrt(float(data.eigenvalues[:keep].sum()))
            lhs = mu / math.sqrt(mu ** 2 + (1 - delta) ** (2 * l))
            assert lhs <= head + 1e-10, model.label
