"""Hamiltonian types, projectorization, layering, frustration checks."""
import numpy as np
import pytest

from dl_lab.errors import ValidationError
from dl_lab.hamiltonian import (HamiltonianSpec, LocalTerm, SiteSpace,
                                chain_geometry, custom_geometry, partition_layers,
                                projectorize, torus_geometry,
                                validate_frustration_free)
from dl_lab.models import ModelDescriptor, build_model, singlet_projector
from dl_lab.states import ground_space, random_state, apply_local, spectrum

from oracles import dense_hamiltonian

EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]])


def chain_spec(n, d, terms, periodic=False):
    return HamiltonianSpec(SiteSpace(n, d, chain_geometry(periodic)), terms)


# ---------------------------------------------------------------------------
# site spaces and geometry
# ---------------------------------------------------------------------------

def test_site_space_rejects_overflowing_dimension():
    with pytest.raises(ValidationError):
        SiteSpace(100, 3, chain_geometry())


def test_site_space_rejects_bad_local_dimension():
    with pytest.raises(ValidationError):
        SiteSpace(4, 1, chain_geometry())


def test_torus_site_count_must_match():
    with pytest.raises(ValidationError):
        SiteSpace(7, 2, torus_geometry(2, 2))


def test_custom_adjacency_is_normalized_symmetric():
    geom = custom_geometry([(2, 0), (0, 2), (1, 0)])
    assert geom.edges == ((0, 1), (0, 2))


def test_custom_adjacency_range_checked():
    with pytest.raises(ValidationError):
        SiteSpace(2, 2, custom_geometry([(0, 5)]))


def test_chain_locality_rejects_distant_support():
    term = LocalTerm((0, 2), np.eye(4) / 2)
    with pytest.raises(ValidationError):
        chain_spec(3, 2, (term,))


def test_custom_adjacency_allows_any_support():
    sites = SiteSpace(3, 2, custom_geometry([(0, 1)]))
    term = LocalTerm((0, 2), np.eye(4) / 2)
    HamiltonianSpec(sites, (term,))  # no error


def test_local_term_validation():
    with pytest.raises(ValidationError):
        LocalTerm((0, 0), np.eye(4))
    with pytest.raises(ValidationError):
        LocalTerm((0,), np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        LocalTerm((0,), -np.eye(2))  # not PSD
    with pytest.raises(ValidationError):
        LocalTerm((0,), 2 * np.eye(2), is_projector=True)


# ---------------------------------------------------------------------------
# projectorize
# ---------------------------------------------------------------------------

def test_projectorize_keeps_existing_projector():
    h = chain_spec(2, 2, (LocalTerm((0,), EXCITED),))
    out, report = projectorize(h, 1e-12)
    assert out.terms[0].is_projector
    assert np.allclose(out.terms[0].matrix, EXCITED, atol=1e-14)
    assert report.max_term_norm == pytest.approx(1.0)


def test_projectorize_rescales_bounded_term():
    h = chain_spec(2, 2, (LocalTerm((0,), 2 * EXCITED),))
    out, report = projectorize(h, 1e-12)
    assert np.allclose(out.terms[0].matrix, EXCITED, atol=1e-14)
    assert report.max_term_norm == pytest.approx(2.0)
    assert report.gap_lower_bound(1.0) == pytest.approx(0.5)


def test_projectorize_heisenberg_exchange_gives_singlet_projector():
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.diag([1.0, -1.0]) / 2
    exchange = 0.25 * np.eye(4) - (np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz))
    h = chain_spec(2, 2, (LocalTerm((0, 1), exchange),))
    out, _ = projectorize(h, 1e-12)
    # oracle: eigendecomposition of the 4x4 exchange term
    evals, evecs = np.linalg.eigh(exchange)
    expected = evecs[:, evals > 1e-12] @ evecs[:, evals > 1e-12].conj().T
    assert np.abs(out.terms[0].matrix - expected).max() < 1e-12
    assert np.allclose(out.terms[0].matrix, singlet_projector(), atol=1e-12)
    assert np.linalg.matrix_rank(out.terms[0].matrix) == 1


def test_projectorize_rejects_zero_term():
    h = chain_spec(2, 2, (LocalTerm((0,), np.zeros((2, 2))),))
    with pytest.raises(ValidationError, match="term 0"):
        projectorize(h, 1e-12)


def test_projectorize_idempotent(corpus):
    for model in corpus:
        again, _ = projectorize(model.h, 1e-12)
        for orig, redo in zip(model.h.terms, again.terms):
            assert np.abs(orig.matrix - redo.matrix).max() < 1e-12


def test_gap_rescaling_bound_scaled_projectors():
    base = build_model(ModelDescriptor.make("heisenberg-ferro", n=5))
    coeffs = (2.0, 0.7, 3.0, 1.2)
    terms = tuple(LocalTerm(t.support, c * t.matrix)
                  for t, c in zip(base.terms, coeffs))
    h = HamiltonianSpec(base.sites, terms)
    tau = _first_gap(dense_hamiltonian(h))
    proj, report = projectorize(h, 1e-12)
    assert report.max_term_norm == pytest.approx(3.0)
    eps = _first_gap(dense_hamiltonian(proj))
    assert eps >= report.gap_lower_bound(tau) - 1e-9


def test_gap_rescaling_bound_spread_spectra():
    # same kernels as the AKLT terms but with non-degenerate positive parts
    base = build_model(ModelDescriptor.make("aklt", n=3))
    rng = np.random.default_rng(5)
    terms = []
    for t in base.terms:
        evals, evecs = np.linalg.eigh(t.matrix)
        positive = evecs[:, evals > 0.5]
        weights = 1.0 + 2.0 * rng.random(positive.shape[1])
        mat = (positive * weights) @ positive.conj().T
        terms.append(LocalTerm(t.support, (mat + mat.conj().T) / 2))
    h = HamiltonianSpec(base.sites, tuple(terms))
    tau = _first_gap(dense_hamiltonian(h))
    proj, report = projectorize(h, 1e-12)
    eps = _first_gap(dense_hamiltonian(proj))
    assert eps >= report.gap_lower_bound(tau) - 1e-9
    for orig, redo in zip(base.terms, proj.terms):
        assert np.abs(orig.matrix - redo.matrix).max() < 1e-10


def _first_gap(mat):
    evals = np.linalg.eigvalsh(mat)
    ground = evals[0]
    above = evals[evals > ground + 1e-10]
    return float(above[0] - ground)


# ---------------------------------------------------------------------------
# layer partition
# ---------------------------------------------------------------------------

def test_partition_open_chain_even_odd():
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=5))
    part = partition_layers(h)
    assert part.layers == ((0, 2), (1, 3))
    assert part.g == 2


def test_partition_single_site_terms():
    h = build_model(ModelDescriptor.make("pinning", n=4))
    assert partition_layers(h).g == 1


def test_partition_toric_layers_disjoint(toric22):
    part = toric22.a.partition
    # oracle: recheck disjointness and exact coverage from scratch
    seen = []
    for layer in part.layers:
        sites = set()
        for idx in layer:
            support = set(toric22.h.terms[idx].support)
            assert not (sites & support)
            sites |= support
        seen.extend(layer)
    assert sorted(seen) == list(range(toric22.h.m))
    assert part.g == 4


def test_same_layer_projectors_commute(corpus):
    rng = np.random.default_rng(3)
    for model in corpus:
        psi = random_state(model.h.sites, rng)
        for layer in model.a.partition.layers:
            if len(layer) < 2:
                continue
            i, j = layer[0], layer[1]
            one = apply_local(model.h.terms[i], apply_local(model.h.terms[j], psi))
            two = apply_local(model.h.terms[j], apply_local(model.h.terms[i], psi))
            assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-12


# ---------------------------------------------------------------------------
# frustration-free validation
# ---------------------------------------------------------------------------

def test_pinning_is_frustration_free(pinning6):
    check = validate_frustration_free(pinning6.h, pinning6.gs, 1e-10)
    assert check
    assert check.max_residual < 1e-12


def test_heisenberg_ferromagnet_is_frustration_free(heis6):
    assert validate_frustration_free(heis6.h, heis6.gs, 1e-10)


def test_frustrated_model_detected(pinning6):
    n = pinning6.h.sites.n
    pinned_zero = np.array([[1.0, 0.0], [0.0, 0.0]])
    frustrated = chain_spec(
        n, 2, pinning6.h.terms + (LocalTerm((0,), pinned_zero),)
    )
    check = validate_frustration_free(frustrated, pinning6.gs, 1e-10)
    assert not check
    assert any(term == len(frustrated.terms) - 1 for term, _, _ in check.violations)
    with pytest.raises(ValidationError):
        ground_space(frustrated, spectrum(frustrated))


def test_frustration_dimension_mismatch(pinning6, heis2):
    with pytest.raises(ValidationError):
        validate_frustration_free(heis2.h, pinning6.gs, 1e-10)
