"""State engine: contraction, spectra, ground spaces, filter, restricted norms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dl_lab import states
from dl_lab.errors import ConvergenceError, DimensionCapError, ValidationError
from dl_lab.hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace, chain_geometry, \
    custom_geometry
from dl_lab.io import hamiltonian_from_document, hamiltonian_to_document
from dl_lab.models import BUNDLED_MODELS, ModelDescriptor, build_model, random_mps_state, \
    singlet_projector
from dl_lab.states import (SpectrumData, StateVector, apply_term_array,
                           gaussian_filter_deviation, ground_kernel, ground_space,
                           product_state, random_state, restricted_norm, spectrum)

from oracles import (dense_filter_deviation, dense_hamiltonian, dense_restricted_norm,
                     einsum_apply, kron_embed)


def qubits(n):
    return SiteSpace(n, 2, chain_geometry())


# ---------------------------------------------------------------------------
# apply_term_array
# ---------------------------------------------------------------------------

def test_apply_identity_returns_input():
    psi = random_state(qubits(4), 1).amplitudes
    out = apply_term_array(np.eye(4), (1, 2), psi, 4, 2)
    assert np.abs(out - psi).max() < 1e-15


def test_apply_single_qubit_projection():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    zero = np.array([1.0, 0.0])
    psi = product_state(qubits(2), [plus, zero]).amplitudes
    out = apply_term_array(np.array([[1.0, 0.0], [0.0, 0.0]]), (0,), psi, 2, 2)
    expected = np.zeros(4, dtype=complex)
    expected[0] = 1 / np.sqrt(2)
    assert np.abs(out - expected).max() < 1e-15


def test_apply_singlet_projector_on_01():
    psi = np.array([0.0, 1.0, 0.0, 0.0])  # |01>
    out = apply_term_array(singlet_projector(), (0, 1), psi, 2, 2)
    # oracle: explicit 4x4 matrix-vector product
    expected = kron_embed(singlet_projector(), (0, 1), 2, 2) @ psi
    assert np.abs(out - expected).max() < 1e-15
    assert out[1] == pytest.approx(0.5)
    assert out[2] == pytest.approx(-0.5)


@pytest.mark.parametrize("n,d,support", [
    (4, 2, (2,)),
    (5, 2, (1, 3)),
    (5, 2, (3, 1)),
    (6, 2, (5, 0, 2)),
    (8, 2, (7, 2, 4, 0)),
    (4, 3, (2, 0)),
    (5, 3, (4, 1, 2)),
])
def test_contraction_matches_kron_embedding(n, d, support):
    rng = np.random.default_rng(hash((n, d, support)) % 2 ** 31)
    sites = SiteSpace(n, d, custom_geometry([(0, 1)]))
    k = len(support)
    gauss = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
    herm = gauss @ gauss.conj().T
    psi = random_state(sites, rng).amplitudes
    fast = apply_term_array(herm, support, psi, n, d)
    slow = kron_embed(herm, support, n, d) @ psi
    assert np.abs(fast - slow).max() < 1e-12 * np.abs(slow).max()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contraction_matches_kron_embedding_hypothesis(data):
    n = data.draw(st.integers(2, 6))
    d = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(1, min(3, n)))
    support = tuple(data.draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
    seed = data.draw(st.integers(0, 2 ** 20))
    rng = np.random.default_rng(seed)
    sites = SiteSpace(n, d, custom_geometry([(0, 1)]))
    gauss = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
    herm = (gauss + gauss.conj().T) / 2 + 2 * d ** k * np.eye(d ** k)
    psi = random_state(sites, rng).amplitudes
    fast = apply_term_array(herm, support, psi, n, d)
    slow = kron_embed(herm, support, n, d) @ psi
    assert np.abs(fast - slow).max() < 1e-12 * max(1.0, np.abs(slow).max())


@pytest.mark.parametrize("support", [(1, 2), (4, 0), (0, 2, 3)],
                         ids=["contiguous", "wrap", "scattered"])
def test_apply_term_array_batched_matches_kron(support):
    # the batched branch, on a (dim, 3) block, against the index-arithmetic embedding
    n, d, k = 5, 2, len(support)
    rng = np.random.default_rng(17)
    raw = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
    block = rng.standard_normal((d ** n, 3)) + 1j * rng.standard_normal((d ** n, 3))
    out = states.apply_term_array(raw, support, block, n, d)
    assert out.shape == (d ** n, 3)
    assert np.abs(out - kron_embed(raw, support, n, d) @ block).max() < 1e-12


@pytest.mark.parametrize("n,d", [(10, 3), (14, 2)])
@pytest.mark.parametrize("bond", ["first", "middle", "right-d", "last", "wrap", "site-first",
                                  "site-last", "three-last", "reversed", "scattered"])
def test_blocked_kernel_matches_einsum_oracle(monkeypatch, n, d, bond):
    # the GEMM blocks of the single-vector path, the batched path and the general path of
    # the supports that are no forward run, against labelled-axis np.einsum: at the default
    # block size and at blocks of d rows or columns, so that row and column blocks are
    # crossed at both sizes.  Last, a batch of width 7, not a power of d, at a work of
    # 4 * size**2: blocks of 4 rows at d = 2, where dividing the 7 * 2**m rows down by d
    # until they fit would stop at 3, which does not divide them
    support = {"first": (0, 1), "middle": (n // 2, n // 2 + 1), "right-d": (n - 3, n - 2),
               "last": (n - 2, n - 1), "wrap": (n - 1, 0), "site-first": (0,),
               "site-last": (n - 1,), "three-last": (n - 3, n - 2, n - 1),
               "reversed": (1, 0), "scattered": (0, 2, 3)}[bond]
    size = d ** len(support)
    rng = np.random.default_rng(n * d)
    draw = lambda shape, dtype: (rng.standard_normal(shape) if dtype is float else
                                 rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for block_work, shapes in [(states.GEMM_BLOCK_WORK, [(d ** n,), (d ** n, 3)]),
                               (d * size * size, [(d ** n,), (d ** n, 3)]),
                               (4 * size * size, [(d ** n, 7)])]:
        monkeypatch.setattr(states, "GEMM_BLOCK_WORK", block_work)
        for matrix_dtype, arr_dtype in [(float, float), (float, complex), (complex, float),
                                        (complex, complex)]:
            matrix = draw((size, size), matrix_dtype)
            for shape in shapes:
                arr = draw(shape, arr_dtype)
                fast = apply_term_array(matrix, support, arr, n, d)
                slow = einsum_apply(matrix, support, arr, n, d)
                assert fast.shape == shape
                assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


# ---------------------------------------------------------------------------
# spectrum and ground space
# ---------------------------------------------------------------------------

def test_pinning_spectrum_counts_excitations():
    h = build_model(ModelDescriptor.make("pinning", n=3))
    spec = spectrum(h)
    assert np.allclose(spec.values, [0, 1, 1, 1, 2, 2, 2, 3], atol=1e-12)
    assert spec.residuals.max() < 1e-8


def test_heisenberg_two_site_spectrum(heis2):
    spec = spectrum(heis2.h)
    assert np.allclose(spec.values, [0, 0, 0, 1], atol=1e-12)
    assert heis2.gs.degeneracy == 3
    assert heis2.gs.gap == pytest.approx(1.0)


def test_toric_ground_space(toric22):
    assert toric22.gs.degeneracy == 4
    assert toric22.gs.gap == pytest.approx(2.0, abs=1e-10)
    # oracle: dense diagonalization of the independently embedded sum
    evals = np.linalg.eigvalsh(dense_hamiltonian(toric22.h))
    assert (evals < 1e-9).sum() == 4
    assert evals[4] == pytest.approx(2.0, abs=1e-10)


def test_pinning_ground_space(pinning6):
    gs = pinning6.gs
    assert gs.degeneracy == 1
    assert gs.gap == pytest.approx(1.0)
    assert abs(abs(gs.basis[0, 0]) - 1) < 1e-12  # |000000>


def test_heisenberg_four_site_degeneracy():
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=4))
    assert ground_space(h, spectrum(h)).degeneracy == 5


def test_parent_random_unique_and_recovers_target(parent632):
    gs = parent632.gs
    assert gs.degeneracy == 1
    target = random_mps_state(6, 3, 2, 2)
    overlap = abs(gs.omega.inner(target))
    assert overlap >= 1 - 1e-9


def test_ground_basis_orthonormal(corpus):
    for model in corpus:
        basis = model.gs.basis
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(model.gs.degeneracy)).max() < 1e-10


def test_iterative_regime_matches_dense(monkeypatch):
    h = build_model(ModelDescriptor.make("aklt", n=6, periodic=True))
    dense = spectrum(h).values[:3]
    # dim 729 is dense by default: lower the cutoff so the Lanczos branch runs
    monkeypatch.setattr(states, "DENSE_CUTOFF", 64)
    true_lanczos = states._lanczos
    calls = []
    monkeypatch.setattr(states, "_lanczos", lambda *args: calls.append(args) or true_lanczos(*args))
    sparse = spectrum(h, 3)
    assert len(calls) == 2  # one solve per state above the ground kernel
    assert np.allclose(dense, sparse.values, atol=1e-8)


@pytest.mark.parametrize("name, params, count", [
    ("aklt", {"n": 7, "periodic": True}, 5),  # 0, then 4 copies of a 6-fold level
    ("heisenberg-ferro", {"n": 10}, 14),  # 11 ground states, then 3 of a 9-fold level
    # complex terms: the projections hold the conjugated rows of the states found
    ("parent-random", {"n": 6, "d": 3, "bond": 2, "seed": 2}, 6),
], ids=["aklt-7-ring", "heisenberg-ferro-10", "parent-random-6322"])
def test_iterative_count_keeps_every_copy_of_a_level(monkeypatch, name, params, count):
    # Lanczos from one start finds the copies of a degenerate level only by luck: every
    # copy the rows hold must be there, not the next level in their place
    h = build_model(ModelDescriptor.make(name, **params))
    dense = spectrum(h).values[:count]
    monkeypatch.setattr(states, "DENSE_CUTOFF", 16)
    sparse = spectrum(h, count)
    assert np.allclose(dense, sparse.values, atol=1e-8)
    assert np.abs(sparse.vectors.conj().T @ sparse.vectors - np.eye(count)).max() < 1e-8


@pytest.mark.parametrize("count", [None, 3])
def test_spectrum_vectors_are_one_c_order_array(pinning6, monkeypatch, count):
    # the dense regime returns every column, count or not; a count is read in the
    # iterative one: the one kernel state and count - 1 above it
    if count is not None:
        monkeypatch.setattr(states, "DENSE_CUTOFF", 32)
    spec = spectrum(pinning6.h, count)
    assert spec.vectors.shape == (pinning6.h.sites.dim, count or pinning6.h.sites.dim)
    assert spec.vectors.flags["C_CONTIGUOUS"]


def test_dense_spectrum_checks_every_returned_column(monkeypatch):
    # one eigenvector perturbed after eigh: the block residual check must catch it
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=4))
    true_eigh = states.scipy.linalg.eigh

    def perturbed(*args, **kwargs):
        values, vectors = true_eigh(*args, **kwargs)
        vectors[0, 7] += 1e-6
        return values, vectors

    monkeypatch.setattr(states.scipy.linalg, "eigh", perturbed)
    with pytest.raises(ConvergenceError, match="eigenpair residuals"):
        spectrum(h)


def test_complex_dense_spectrum_and_filter():
    # eigh diagonalizes conj(H) in place; the vectors must come back conjugated
    phi = np.array([0.0, 1j, -1.0, 0.0]) / np.sqrt(2)
    h = HamiltonianSpec(qubits(5), tuple(LocalTerm((i, i + 1), np.outer(phi, phi.conj()))
                                         for i in range(4)))
    spec = spectrum(h)
    assert np.iscomplexobj(spec.vectors)
    assert np.abs(dense_hamiltonian(h) @ spec.vectors - spec.vectors * spec.values).max() < 1e-12
    gs = ground_space(h, spec)
    for q in (1.0, 4.0):
        measured = gaussian_filter_deviation(q, gs, spectrum_data=spec)
        assert abs(measured - dense_filter_deviation(h, q, gs)) < 1e-12


def test_dimension_cap_override(monkeypatch):
    monkeypatch.setenv("DL_LAB_MAX_DIM", "32")
    h = build_model(ModelDescriptor.make("pinning", n=6))
    with pytest.raises(DimensionCapError):
        spectrum(h)


@pytest.mark.parametrize("descriptor", BUNDLED_MODELS, ids=lambda desc: desc.label())
def test_hamiltonian_matrix_is_the_oracle_bit_for_bit(descriptor):
    # toric-code terms sit on non-contiguous supports, the ring has a wrap bond and
    # parent-random terms are complex: the in-place assembly adds the same entries
    # in the same order as the index-arithmetic oracle
    h = build_model(descriptor)
    assert h.sites.dim <= states.DENSE_CUTOFF
    assert np.array_equal(states.hamiltonian_matrix(h), dense_hamiltonian(h))


# ---------------------------------------------------------------------------
# ground kernel against the dense ground space
# ---------------------------------------------------------------------------

# The dense oracle's eigh grows as dim^3: on a 2-vCPU Xeon a complex one took 20 s at
# 4096 for the eigenvalues alone, a real one 0.05 s at 512, so the generated models
# stay at or below this dimension.
ORACLE_DIM = 512


def _max_sites(d: int) -> int:
    n = 1
    while d ** (n + 1) <= ORACLE_DIM:
        n += 1
    return n


def _assert_kernel_is_dense_ground_space(h: HamiltonianSpec) -> None:
    kernel = ground_kernel(h)
    evals, evecs = np.linalg.eigh(dense_hamiltonian(h))
    dense = evecs[:, evals <= states.GROUND_TOL_SCALE * (1.0 + h.norm_bound())]
    assert kernel.shape == dense.shape
    cosines = np.linalg.svd(dense.conj().T @ kernel, compute_uv=False)
    assert cosines.min() >= 1 - 1e-10
    assert np.linalg.norm(states.hamiltonian_apply(h, kernel)) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ground_kernel_matches_dense_parent_random(data):
    d = data.draw(st.integers(2, 5), label="d")
    n = data.draw(st.integers(3, _max_sites(d)), label="n")
    bond = data.draw(st.integers(1, d - 1), label="bond")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    _assert_kernel_is_dense_ground_space(
        build_model(ModelDescriptor.make("parent-random", n=n, d=d, bond=bond, seed=seed)))


def _planted_product(n: int, d: int, edges, ranks, seed: int,
                     is_complex: bool) -> HamiltonianSpec:
    """A custom-adjacency document whose edge terms are random projectors Q of the
    given ranks with Q (phi_i x phi_j) = 0: the product of the phi_i is a ground state."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        real = rng.standard_normal(shape)
        return real + 1j * rng.standard_normal(shape) if is_complex else real

    phi = [v / np.linalg.norm(v) for v in (draw(d) for _ in range(n))]
    terms = []
    for (i, j), rank in zip(edges, ranks):
        planted = np.kron(phi[i], phi[j])
        span = draw(d * d, rank)
        span -= np.outer(planted, planted.conj() @ span)
        q = np.linalg.qr(span)[0]
        terms.append(LocalTerm((i, j), q @ q.conj().T, is_projector=True))
    doc = hamiltonian_to_document(HamiltonianSpec(SiteSpace(n, d, custom_geometry(edges)),
                                                  tuple(terms)))
    return hamiltonian_from_document(doc)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ground_kernel_matches_dense_planted_product(data):
    d = data.draw(st.integers(2, 3), label="d")
    n = data.draw(st.integers(2, _max_sites(d)), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * n,
                               unique=True), label="edges")
    ranks = data.draw(st.lists(st.integers(1, d * d - 1), min_size=len(edges),
                               max_size=len(edges)), label="ranks")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    is_complex = data.draw(st.booleans(), label="complex")
    _assert_kernel_is_dense_ground_space(_planted_product(n, d, edges, ranks, seed, is_complex))


def test_ground_kernel_refines_an_ill_conditioned_step():
    # found by the test above: at site 3 the Gram has eigenvalues 0, 0 and 2.6e-6, so
    # the null vectors lean 4e-11 into a direction the later terms on site 0 lift, and
    # ||H K|| was 1.2e-10 before the refinement step (3e-14 after)
    h = _planted_product(8, 2, [(0, 4), (0, 5), (0, 3), (0, 6), (0, 2)], [1, 1, 2, 3, 2],
                         seed=0, is_complex=False)
    _assert_kernel_is_dense_ground_space(h)


# ---------------------------------------------------------------------------
# gaussian filter
# ---------------------------------------------------------------------------

def test_filter_scales_eigenvectors():
    # pinning(2) has the levels 0, 1, 1, 2: off the ground space the filter's largest
    # weight is exp(-q / 2), on the first excited states
    h = build_model(ModelDescriptor.make("pinning", n=2))
    spec = spectrum(h)
    for q in (0.5, 2.0):
        measured = gaussian_filter_deviation(q, ground_space(h, spec), spectrum_data=spec)
        assert measured == pytest.approx(np.exp(-q / 2.0), abs=1e-14)


def test_filter_q_zero_is_identity():
    # the filter at q = 0 is the identity, one away from the ground projector
    h = build_model(ModelDescriptor.make("pinning", n=3))
    spec = spectrum(h)
    measured = gaussian_filter_deviation(0.0, ground_space(h, spec), spectrum_data=spec)
    assert measured == pytest.approx(1.0, abs=1e-12)


def test_filter_deviation_needs_full_spectrum(heis6):
    spec, deg = spectrum(heis6.h), heis6.gs.degeneracy
    partial = SpectrumData(spec.values[:deg], spec.vectors[:, :deg], spec.residuals[:deg])
    with pytest.raises(ValidationError, match="full spectrum"):
        gaussian_filter_deviation(1.0, heis6.gs, spectrum_data=partial)


def test_filter_monotone_on_complement(heis6):
    spec = spectrum(heis6.h)
    norms = [gaussian_filter_deviation(q, heis6.gs, spectrum_data=spec)
             for q in (0.0, 1.0, 4.0, 16.0)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_filter_bound_on_models(pinning6, heis6, aklt4, toric22):
    for model in (pinning6, heis6, aklt4, toric22):
        spec = spectrum(model.h)
        for q in (1.0, 4.0, 16.0):
            measured = gaussian_filter_deviation(q, model.gs, spectrum_data=spec)
            assert measured <= np.exp(-q * model.gs.gap ** 2 / 2) + 1e-9


def test_filter_deviation_matches_svd_oracle(corpus):
    for model in corpus:
        spec = spectrum(model.h)
        for q in (1.0, 4.0, 16.0):
            measured = gaussian_filter_deviation(q, model.gs, spectrum_data=spec)
            oracle = dense_filter_deviation(model.h, q, model.gs)
            assert abs(measured - oracle) < 1e-12, model.label


# ---------------------------------------------------------------------------
# restricted norm
# ---------------------------------------------------------------------------

def test_restricted_norm_identity(heis6):
    identity = lambda arr: arr
    assert restricted_norm(identity, identity, heis6.gs) == pytest.approx(1.0, abs=1e-10)


def test_restricted_norm_of_ground_projector(heis6):
    basis = heis6.gs.basis
    project = lambda arr: basis @ (basis.conj().T @ arr)
    assert restricted_norm(project, project, heis6.gs) <= 1e-10


def test_restricted_norm_dl_pinning(pinning6):
    value = restricted_norm(pinning6.a.apply_array, pinning6.a.adjoint_apply_array, pinning6.gs)
    assert value <= 1e-12
    # oracle: dense matrix product of all complement projectors
    assert dense_restricted_norm(pinning6.a, pinning6.gs) <= 1e-12


@pytest.mark.parametrize("name", ["heis6", "aklt4", "parent632", "toric22"])
def test_restricted_norm_matches_dense_oracle(name, request):
    # heis6 has a non-Hermitian A, parent632 complex amplitudes, toric22 a
    # norm that vanishes only up to rounding
    model = request.getfixturevalue(name)
    value = restricted_norm(model.a.apply_array, model.a.adjoint_apply_array, model.gs)
    assert abs(value - dense_restricted_norm(model.a, model.gs)) < 1e-10


@pytest.mark.parametrize("name", ["pinning6", "heis2"])
def test_restricted_norm_vanishing_on_complement_is_zero(name, request):
    model = request.getfixturevalue(name)
    assert restricted_norm(model.a.apply_array, model.a.adjoint_apply_array, model.gs) == 0.0


def test_restricted_norm_real_arithmetic_for_real_input(heis6):
    seen = []

    def recording(apply):
        def wrapped(arr):
            seen.append(arr.dtype)
            return apply(arr)
        return wrapped

    a = heis6.a
    restricted_norm(recording(a.apply_array), recording(a.adjoint_apply_array), heis6.gs)
    assert seen and all(dtype == np.float64 for dtype in seen)


def test_restricted_norm_asserts_residual(heis6, monkeypatch):
    def unconverged(op, k, **kwargs):
        vec = np.zeros((op.shape[0], 1))
        vec[0, 0] = 1.0
        return np.array([0.5]), vec

    monkeypatch.setattr(states.spla, "eigsh", unconverged)
    a = heis6.a
    with pytest.raises(ConvergenceError, match="residual"):
        restricted_norm(a.apply_array, a.adjoint_apply_array, heis6.gs)


# ---------------------------------------------------------------------------
# state vector plumbing
# ---------------------------------------------------------------------------

def test_state_vector_validation():
    sites = qubits(2)
    with pytest.raises(ValidationError):
        StateVector(np.zeros(3), sites)
    with pytest.raises(ValidationError):
        StateVector(np.array([np.nan, 0, 0, 0]), sites)
