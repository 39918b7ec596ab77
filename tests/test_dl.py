"""Layered projection operator: bounds, pyramids, trade-off, convergence."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dl_lab import cli, runner, states
from dl_lab.dl import (apply_pyramids, converge, dl_bound, dl_operator,
                       measure_shrinkage, norm_energy_check,
                       pyramid_applicable, pyramid_decompose, step_inequality_margin)
from dl_lab.errors import ConvergenceError, ValidationError
from dl_lab.hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace, chain_geometry
from dl_lab.models import ModelDescriptor, build_model
from dl_lab.runner import NORM_ENERGY_STACK, RunConfig, run
from dl_lab.states import (GroundSpaceData, ground_kernel, product_state, random_state,
                           spectrum)

from oracles import (dense_dl_matrix, dense_norm_energy, dense_restricted_norm, kron_embed,
                     norm_energy_sweep, random_span)


# ---------------------------------------------------------------------------
# operator construction and application
# ---------------------------------------------------------------------------

def test_requires_projector_terms():
    sites = SiteSpace(2, 2, chain_geometry())
    h = HamiltonianSpec(sites, (LocalTerm((0,), 2 * np.diag([0.0, 1.0])),))
    with pytest.raises(ValidationError, match="projectorize"):
        dl_operator(h)
    with pytest.raises(ValidationError, match="projectorize"):
        ground_kernel(h)


def test_ground_vectors_are_fixed_points(corpus):
    for model in corpus:
        for vec in model.gs.basis.T:
            out = model.a.apply_array(vec)
            assert np.abs(out - vec).max() < 1e-12, model.label


def test_pinning_collapses_plus_state(pinning6):
    n = pinning6.h.sites.n
    psi = product_state(pinning6.h.sites, [np.ones(2) / np.sqrt(2)] * n)
    out = pinning6.a.apply(psi)
    expected = np.zeros(2 ** n)
    expected[0] = 2 ** (-n / 2)
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_apply_matches_dense_layer_product(heis6):
    # oracle: dense matrices of the two layer products, first layer applied last
    psi = random_state(heis6.h.sites, 21)
    fast = heis6.a.apply(psi).amplitudes
    slow = dense_dl_matrix(heis6.a) @ psi.amplitudes
    assert np.abs(fast - slow).max() < 1e-12


def test_application_order_even_layer_first(heis6):
    h = heis6.h
    eye = np.eye(h.sites.dim, dtype=complex)
    odd = eye.copy()
    even = eye.copy()
    for idx, term in enumerate(h.terms):
        comp = np.eye(4) - term.matrix
        embedded = kron_embed(comp, term.support, h.sites.n, h.sites.d)
        if idx % 2 == 0:
            odd = odd @ embedded  # first, third, ... bond
        else:
            even = even @ embedded
    psi = random_state(h.sites, 33)
    expected = odd @ (even @ psi.amplitudes)
    got = heis6.a.apply(psi).amplitudes
    assert np.abs(got - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# the bound
# ---------------------------------------------------------------------------

def test_bound_one_dimensional_value():
    assert dl_bound(1.0, 2.0) == pytest.approx(0.8735804647362989, abs=1e-12)


def test_bound_crude_f_value():
    assert dl_bound(1.0, 4.0) == pytest.approx(0.9283177667225558, abs=1e-12)


def test_bound_single_layer_is_zero():
    assert dl_bound(0.5, None) == 0.0


@pytest.mark.parametrize("name, params, g, k, f_value", [
    ("pinning", {"n": 6}, 1, 1, None),
    ("heisenberg-ferro", {"n": 8}, 2, 2, 2.0),
    ("aklt", {"n": 6, "periodic": True}, 2, 2, 2.0),
    ("aklt", {"n": 5, "periodic": True}, 3, 2, 16.0),  # odd ring: three layers
    ("toric-code", {"lx": 2, "ly": 2}, 4, 4, 768.0),
])
def test_f_value_by_geometry(name, params, g, k, f_value):
    h = build_model(ModelDescriptor.make(name, **params))
    a = dl_operator(h)
    assert (a.g, h.max_k, a.f_value) == (g, k, f_value)


def test_shrinkage_report_uses_operator_bound(pinning6, heis8, toric22, tmp_path):
    # the dl-shrinkage record of a dense run: measure_shrinkage against shrink_bound
    for model in (pinning6, heis8, toric22):
        doc = {"command": "dl", "output": {"dir": str(tmp_path)},
               "model": {"name": model.descriptor.name, "parameters": model.descriptor.params}}
        records = {r.name: r for r in run(RunConfig.from_document(doc)).records}
        assert records["dl-f-value"].measured == (model.a.f_value or 0.0)
        assert records["dl-shrinkage"].bound == model.a.shrink_bound(model.gs.gap)
        assert records["dl-shrinkage"].measured == measure_shrinkage(model.a, model.gs)


def test_bound_rejects_bad_gap():
    with pytest.raises(ValidationError):
        dl_bound(0.0, 4.0)


def test_delta_bracketed_by_gap_fractions():
    # 1 - (1 + eps/2)^(-1/3) stays between eps/8 and eps/6 for eps in (0, 1]
    for eps in np.linspace(0.01, 1.0, 100):
        delta = 1.0 - dl_bound(float(eps), 2.0)
        assert eps / 8 - 1e-12 <= delta <= eps / 6 + 1e-12
    delta_unit = 1.0 - dl_bound(1.0, 2.0)
    assert delta_unit == pytest.approx(0.1264195352637011, abs=1e-12)


# ---------------------------------------------------------------------------
# measured shrinkage
# ---------------------------------------------------------------------------

def test_shrinkage_pinning_exact_zero(pinning6):
    assert pinning6.a.g == 1
    assert pinning6.a.shrink_bound(pinning6.gs.gap) == 0.0
    assert measure_shrinkage(pinning6.a, pinning6.gs) <= 1e-12


def test_shrinkage_heisenberg_chain(heis8):
    assert heis8.a.f_value == 2.0
    assert measure_shrinkage(heis8.a, heis8.gs) <= heis8.a.shrink_bound(heis8.gs.gap) + 1e-9


def test_shrinkage_aklt_ring(aklt6p):
    assert aklt6p.a.f_value == 2.0
    assert measure_shrinkage(aklt6p.a, aklt6p.gs) <= aklt6p.a.shrink_bound(aklt6p.gs.gap) + 1e-9


# ---------------------------------------------------------------------------
# ground space as the common kernel of the terms
# ---------------------------------------------------------------------------

def test_ground_degeneracy_matches_dense_ground_space(corpus):
    # heisenberg-ferro(8) has a 9-fold ground space; parent-random(8,2,2,7) has 64
    for model in corpus:
        basis = ground_kernel(model.h)
        assert basis.shape[1] == model.gs.degeneracy, model.label
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() < 1e-10
        # the same subspace as the dense ground space
        dense = model.gs.basis
        assert np.linalg.norm(dense @ (dense.conj().T @ basis) - basis) < 1e-7, model.label


def test_kernel_shrinkage_is_restricted_norm(corpus):
    for model in corpus:
        basis = ground_kernel(model.h)
        gs = GroundSpaceData(0.0, model.gs.gap, basis, model.h.sites)
        measured = measure_shrinkage(model.a, gs)
        assert abs(measured - dense_restricted_norm(model.a, model.gs)) < 1e-9, model.label


def test_ground_degeneracy_zero_when_frustrated(pinning6):
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    for extra in (np.diag([1.0, 0.0]), minus):  # A = 0, and A != 0 with no fixed state
        extra_term = LocalTerm((0,), extra, is_projector=True)
        frustrated = HamiltonianSpec(pinning6.h.sites, pinning6.h.terms + (extra_term,))
        assert ground_kernel(frustrated).shape == (pinning6.h.sites.dim, 0)


def test_ground_degeneracy_asserts_residual(heis6, monkeypatch):
    # one kernel column tilted by 1e-6 out of the kernel: its energy (about 1e-12) stays
    # under the zero threshold, so only the block residual check of spectrum catches it
    kernel = ground_kernel(heis6.h)
    tilt = random_state(heis6.h.sites, 5).amplitudes.real
    kernel[:, 0] += 1e-6 * (tilt - kernel @ (kernel.T @ tilt))
    kernel[:, 0] /= np.linalg.norm(kernel[:, 0])
    monkeypatch.setattr(states, "DENSE_CUTOFF", 32)
    monkeypatch.setattr(states, "ground_kernel", lambda h: kernel)
    with pytest.raises(ConvergenceError, match="residual"):
        spectrum(heis6.h, 9)


# ---------------------------------------------------------------------------
# pyramids
# ---------------------------------------------------------------------------

def test_pyramid_structure_six_sites(heis6):
    primary, shifted = pyramid_decompose(heis6.a)
    assert primary.pyramids == ((1, 3, 2), (5,))
    assert primary.remainder == (4,)
    assert shifted.pyramids == ((1,), (3, 5, 4))
    assert shifted.remainder == (2,)


def test_pyramid_three_sites_degenerate():
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=3))
    primary, shifted = pyramid_decompose(dl_operator(h))
    assert primary.pyramids == ((1, 2),)
    assert primary.remainder == ()
    assert shifted.pyramids == ((1,),)
    assert shifted.remainder == (2,)


def test_pyramid_operator_identity(heis6, heis8):
    rng = np.random.default_rng(17)
    for model in (heis6, heis8):
        primary, shifted = pyramid_decompose(model.a)
        for _ in range(5):
            psi = random_state(model.h.sites, rng)
            direct = model.a.apply(psi).amplitudes
            for dec in (primary, shifted):
                redone = apply_pyramids(model.a, dec, psi).amplitudes
                assert np.abs(direct - redone).max() < 1e-12


def test_pyramid_shifted_ten_sites():
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=10))
    a = dl_operator(h)
    _, shifted = pyramid_decompose(a)
    assert shifted.pyramids == ((1,), (3, 5, 4), (7, 9, 8))
    assert shifted.remainder == (2, 6)
    psi = random_state(h.sites, 3)
    direct = a.apply(psi).amplitudes
    redone = apply_pyramids(a, shifted, psi).amplitudes
    assert np.abs(direct - redone).max() < 1e-12


def test_pyramid_applicable_only_on_open_pair_chains(heis6, aklt6p, pinning6, toric22):
    assert pyramid_applicable(heis6.a)
    assert not any(pyramid_applicable(m.a) for m in (aklt6p, pinning6, toric22))


def test_pyramid_rejects_rings_and_single_layer(aklt6p, pinning6):
    with pytest.raises(ValidationError):
        pyramid_decompose(aklt6p.a)
    with pytest.raises(ValidationError):
        pyramid_decompose(pinning6.a)


# ---------------------------------------------------------------------------
# norm-energy trade-off
# ---------------------------------------------------------------------------

def test_norm_energy_equal_projectors():
    rng = np.random.default_rng(2)
    gauss = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    q, _ = np.linalg.qr(gauss)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    lhs, rhs = norm_energy_check(q, q, v)
    assert lhs <= 1e-20


def test_norm_energy_qubit_equality_case():
    # X = |+><+| and Y = |0><0|, Y given by its span and as the complement of |1>
    x = np.full((2, 1), np.sqrt(0.5))
    v = np.array([1.0, 0.0])
    for y, y_complement in ((np.array([[1.0], [0.0]]), False), (np.array([[0.0], [1.0]]), True)):
        lhs, rhs = norm_energy_check(x, y, v, y_complement=y_complement)
        assert lhs == pytest.approx(0.25, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)


def test_norm_energy_random_sweep():
    rng = np.random.default_rng(12)
    for _ in range(500):
        dim = int(rng.integers(2, 33))
        x = random_span(rng, dim)
        y = random_span(rng, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        lhs, rhs = norm_energy_check(x, y, v)
        assert lhs <= rhs + 1e-10


def test_norm_energy_rejects_non_projector():
    # 2 I spans C^2, but its columns are not unit vectors: 2 I (2 I)^H is no projector
    with pytest.raises(ValidationError, match="X does not have orthonormal columns"):
        norm_energy_check(2 * np.eye(2), np.eye(2), np.array([1.0, 0.0]))


def _basis_stack(seed, m=6, dim=5):
    """Stacks of m random bases of X and Y, zero columns padding each to dim - 1, and
    random complement flags, with m normalized v."""
    rng = np.random.default_rng(seed)
    x, y = (np.stack([np.pad(q, ((0, 0), (0, dim - 1 - q.shape[1])))
                      for q in (random_span(rng, dim) for _ in range(m))]) for _ in range(2))
    x_complement, y_complement = rng.integers(0, 2, (2, m)).astype(bool)
    v = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    return x, y, v / np.linalg.norm(v, axis=1, keepdims=True), x_complement, y_complement


def test_norm_energy_stack_matches_single_pairs():
    x, y, v, x_complement, y_complement = _basis_stack(3)
    lhs, rhs = norm_energy_check(x, y, v, x_complement, y_complement)
    assert lhs.shape == rhs.shape == (6,)
    for i in range(6):
        single = norm_energy_check(x[i], y[i], v[i], x_complement[i], y_complement[i])
        assert all(isinstance(value, float) for value in single)
        assert np.allclose(single, (lhs[i], rhs[i]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [4, 11, 30])
def test_norm_energy_basis_form_matches_dense_oracle(seed):
    x, y, v, x_complement, y_complement = _basis_stack(seed, m=16, dim=9)
    assert x_complement.any() and not x_complement.all()
    assert y_complement.any() and not y_complement.all()
    eye = np.eye(9)
    x_proj, y_proj = (np.where(flag[:, None, None], eye - proj, proj)
                      for flag, proj in ((x_complement, x @ np.swapaxes(x, 1, 2).conj()),
                                         (y_complement, y @ np.swapaxes(y, 1, 2).conj())))
    lhs, rhs = norm_energy_check(x, y, v, x_complement, y_complement)
    dense_lhs, dense_rhs = dense_norm_energy(x_proj, y_proj, v)
    assert np.abs(lhs - dense_lhs).max() <= 1e-14
    assert np.abs(rhs - dense_rhs).max() <= 1e-14


@pytest.mark.parametrize("member", [0, 2, 3])
def test_norm_energy_stack_checks_every_member(member):
    x, y, v, x_complement, y_complement = _basis_stack(5)
    bad = x.copy()
    bad[member] *= 2.0  # same span, columns no longer unit vectors
    with pytest.raises(ValidationError, match=rf"X\[{member}\] does not have orthonormal"):
        norm_energy_check(bad, y, v, x_complement, y_complement)
    bad = y.copy()
    bad[member, 0, 1] += 1e-6  # the first two columns no longer orthogonal
    with pytest.raises(ValidationError, match=rf"Y\[{member}\] does not have orthonormal"):
        norm_energy_check(x, bad, v, x_complement, y_complement)
    bad = v.copy()
    bad[member] *= 1.0 + 1e-8
    with pytest.raises(ValidationError, match="normalized"):
        norm_energy_check(x, y, bad, x_complement, y_complement)


@pytest.mark.parametrize("flags", [(False, False), (False, True), (True, False), (True, True)])
def test_norm_energy_padded_member_matches_its_own_dimension(flags):
    # the sweep pads each member with zero rows up to the largest dimension of its stack
    x, y, v, _, _ = _basis_stack(6)
    lhs, rhs = norm_energy_check(x, y, v, *flags)
    for pad in (1, 4, 27):
        rows = ((0, 0), (0, pad), (0, 0))
        padded = norm_energy_check(np.pad(x, rows), np.pad(y, rows), np.pad(v, rows[:2]), *flags)
        assert np.abs(padded[0] - lhs).max() <= 1e-15
        assert np.abs(padded[1] - rhs).max() <= 1e-15


def _captured_stacks(monkeypatch):
    """The arguments of every norm_energy_check call the sweep makes, appended as it runs."""
    stacks = []

    def capturing(*args):
        stacks.append(args)
        return norm_energy_check(*args)

    monkeypatch.setattr(runner, "norm_energy_check", capturing)
    return stacks


@pytest.mark.parametrize("samples", [1, 15, 16, 17, NORM_ENERGY_STACK + 1, 1000])
@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_norm_energy_record_matches_per_pair_oracle(seed, samples, tmp_path, monkeypatch):
    # up to 17 samples leave most of the 31 dimensions without a sample; one more than
    # a stack takes two stacks; 1000 is the default sweep, where stacks cross dimensions
    stacks = _captured_stacks(monkeypatch)
    doc = {"command": "verify", "output": {"dir": str(tmp_path)},
           "model": {"name": "heisenberg-ferro", "parameters": {"n": 2}},
           "parameters": {"seed": seed, "norm_energy_samples": samples}}
    records = {r.name: r for r in run(RunConfig.from_document(doc)).records}
    assert records["norm-energy"].measured == pytest.approx(
        norm_energy_sweep(seed, samples), rel=0, abs=1e-15)
    assert [len(v) for _, _, v, *_ in stacks] == [
        min(NORM_ENERGY_STACK, samples - start) for start in range(0, samples, NORM_ENERGY_STACK)]
    if samples == 1000:
        assert any(len(set(np.count_nonzero(v, axis=-1).tolist())) > 1 for _, _, v, *_ in stacks)


def test_norm_energy_sweep_draws_every_rank_on_both_sides(tmp_path, monkeypatch):
    # a rank above dim / 2 is drawn as the complement of the narrow side; a member's
    # dimension is the count of nonzero entries of its v, and its rows past it are zero
    stacks = _captured_stacks(monkeypatch)
    doc = {"command": "verify", "output": {"dir": str(tmp_path)},
           "model": {"name": "heisenberg-ferro", "parameters": {"n": 2}},
           "parameters": {"seed": 1, "norm_energy_samples": 1000}}
    run(RunConfig.from_document(doc))
    seen = set()
    for x_basis, y_basis, v, x_complement, y_complement in stacks:
        dims = np.count_nonzero(v, axis=-1)
        assert v.shape[-1] == dims.max()
        padding = np.arange(v.shape[-1]) >= dims[:, None]
        assert not v[padding].any()
        widest = 0
        for basis, complement in ((x_basis, x_complement), (y_basis, y_complement)):
            assert not basis[padding].any()
            norms = np.linalg.norm(basis, axis=-2)
            used = np.round(norms)
            assert np.abs(norms - used).max() < 1e-10
            narrow = used.sum(axis=-1)
            widest = max(widest, narrow.max())
            assert (2 * narrow <= dims).all()
            ranks = np.where(complement, dims - narrow, narrow)
            assert ((1 <= ranks) & (ranks <= dims - 1)).all()
            assert (complement == (ranks > dims / 2)).all()
            seen |= {(dim, bool(wide)) for dim, wide in zip(dims.tolist(), complement)}
        assert x_basis.shape[-1] == y_basis.shape[-1] == widest
    assert sum(len(v) for _, _, v, *_ in stacks) == 1000
    assert {(dim, wide) for dim in range(4, 33) for wide in (False, True)} <= seen


def test_norm_energy_record_fails_on_a_wrong_bound(tmp_path, monkeypatch):
    # a known-wrong rhs, 1 % low: the sweep reaches the edge of the inequality
    def wrong(*args):
        lhs, rhs = norm_energy_check(*args)
        return lhs, rhs * 0.99

    monkeypatch.setattr(runner, "norm_energy_check", wrong)
    doc = {"schema_version": 1, "command": "verify",
           "model": {"name": "heisenberg-ferro", "parameters": {"n": 2}},
           "output": {"dir": str(tmp_path / "out"), "format": "structured"}}
    path = str(tmp_path / "config.json")
    with open(path, "w") as handle:
        json.dump(doc, handle)
    assert cli.main(["verify", "--config", path, "--quiet"]) == 1
    with open(tmp_path / "out" / "report.json") as handle:
        checks = {c["name"]: c for c in json.load(handle)["checks"]}
    assert checks["norm-energy"]["status"] == "fail"
    assert checks["norm-energy"]["measured"] > 1e-4


# ---------------------------------------------------------------------------
# scalar step inequality
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(1, 64))
def test_step_inequality_holds(x, m):
    assert step_inequality_margin(x, m) >= -1e-12


def test_step_inequality_tight_at_one():
    assert step_inequality_margin(1.0, 7) == pytest.approx(0.0, abs=1e-14)


def test_step_inequality_grid_matches_scalar_loop():
    xs = np.linspace(1e-3, 1.0, 200)
    grid = step_inequality_margin(xs, np.arange(1, 65)[:, None])
    loop = np.array([[step_inequality_margin(float(x), m) for x in xs] for m in range(1, 65)])
    # numpy's vectorized pow may differ from libm's by one ulp of x^(1/m) <= 1, times m <= 64
    np.testing.assert_allclose(grid, loop, rtol=0.0, atol=64 * np.finfo(float).eps)
    for x, m in ((np.array([0.5, 0.0]), 2), (0.5, np.array([1, 0]))):
        with pytest.raises(ValidationError):
            step_inequality_margin(x, m)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_converge_ground_vector_stays(heis6):
    trace = converge(heis6.a, heis6.gs, heis6.gs.omega, 5)
    assert max(trace.residuals) < 1e-12


def test_converge_pinning_first_step(pinning6):
    psi = product_state(pinning6.h.sites, [np.ones(2) / np.sqrt(2)] * pinning6.h.sites.n)
    trace = converge(pinning6.a, pinning6.gs, psi, 3)
    assert trace.residuals[0] <= 1e-12


def test_converge_heisenberg_bound_and_monotone(heis8):
    psi = random_state(heis8.h.sites, 5)
    trace = converge(heis8.a, heis8.gs, psi, 20)
    assert all(r <= b + 1e-9 for _, r, b in trace.rows())
    assert all(b <= a + 1e-14 for a, b in zip(trace.residuals, trace.residuals[1:]))
    # independent residual check against a dense ground projector
    basis = heis8.gs.basis
    target = basis @ (basis.conj().T @ psi.amplitudes)
    current = psi.amplitudes
    for l in range(3):
        current = heis8.a.apply_array(current)
        assert np.linalg.norm(current - target) == pytest.approx(trace.residuals[l],
                                                                 abs=1e-12)


def test_converge_validates_l_max(heis6):
    with pytest.raises(ValidationError):
        converge(heis6.a, heis6.gs, heis6.gs.omega, 0)
