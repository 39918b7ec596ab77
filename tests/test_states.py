"""State engine: contraction, spectra, ground spaces, filter, restricted norms."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dl_lab import runner, states
from dl_lab.errors import ConvergenceError, DimensionCapError, ValidationError
from dl_lab.hamiltonian import HamiltonianSpec, LocalTerm, SiteSpace, chain_geometry, \
    custom_geometry
from dl_lab.io import hamiltonian_from_document, hamiltonian_to_document
from dl_lab.models import BUNDLED_MODELS, ModelDescriptor, build_model, random_mps_state, \
    singlet_projector
from dl_lab.runner import RunConfig, run
from dl_lab.states import (SpectrumData, StateVector, apply_term_array,
                           gaussian_filter_deviation, ground_kernel, ground_space,
                           product_state, random_state, restricted_norm, spectrum)

from oracles import (components, dense_filter_deviation, dense_hamiltonian,
                     dense_restricted_norm, einsum_apply, kron_embed)


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
def test_blocked_kernel_matches_einsum_oracle(n, d, bond):
    # the single-vector GEMM on the last bond, the np.matmul fold of every other array on
    # a forward run and the rows of the supports that are no forward run, against
    # labelled-axis np.einsum, on single vectors and on batches of widths 3 and 7.  A
    # (d**n, 2) shape stands for its second column, a single vector whose amplitudes are
    # not adjacent: a complex one through a real term is contracted on a float view of
    # its amplitudes
    support = {"first": (0, 1), "middle": (n // 2, n // 2 + 1), "right-d": (n - 3, n - 2),
               "last": (n - 2, n - 1), "wrap": (n - 1, 0), "site-first": (0,),
               "site-last": (n - 1,), "three-last": (n - 3, n - 2, n - 1),
               "reversed": (1, 0), "scattered": (0, 2, 3)}[bond]
    size = d ** len(support)
    rng = np.random.default_rng(n * d)
    draw = lambda shape, dtype: (rng.standard_normal(shape) if dtype is float else
                                 rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for matrix_dtype, arr_dtype in [(float, float), (float, complex), (complex, float),
                                    (complex, complex)]:
        matrix = draw((size, size), matrix_dtype)
        for shape in [(d ** n,), (d ** n, 3), (d ** n, 2), (d ** n, 7)]:
            arr = draw(shape, arr_dtype)
            if shape == (d ** n, 2):
                arr = arr[:, 1]
            fast = apply_term_array(matrix, support, arr, n, d)
            slow = einsum_apply(matrix, support, arr, n, d)
            assert fast.shape == arr.shape
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
    vectors = sparse.columns()
    assert np.abs(vectors.conj().T @ vectors - np.eye(count)).max() < 1e-8


@pytest.mark.parametrize("count", [None, 3])
def test_spectrum_vectors_are_one_c_order_array(pinning6, monkeypatch, count):
    # the dense regime returns every column, count or not; a count is read in the
    # iterative one: the one kernel state and count - 1 above it.  Each block's
    # vectors, and the columns built from them, are C-order
    if count is not None:
        monkeypatch.setattr(states, "DENSE_CUTOFF", 32)
    spec = spectrum(pinning6.h, count)
    assert spec.columns().shape == (pinning6.h.sites.dim, count or pinning6.h.sites.dim)
    assert spec.columns().flags["C_CONTIGUOUS"]
    assert all(vectors.flags["C_CONTIGUOUS"] for _, _, vectors in spec.blocks)


def test_dense_spectrum_checks_every_returned_column(monkeypatch):
    # one entry of the vectors of the largest block perturbed after its eigh: the one
    # residual check on every column must catch it.  heisenberg-ferro(4) has S_z blocks
    # of sizes 1, 4, 6, 4, 1; parent-random(4,2,1,0) is one block of all 16 rows
    true_eigh = states.scipy.linalg.eigh
    for name, params, largest in [("heisenberg-ferro", {"n": 4}, 6),
                                  ("parent-random", {"n": 4, "d": 2, "bond": 1, "seed": 0}, 16)]:
        h = build_model(ModelDescriptor.make(name, **params))

        def perturbed(*args, largest=largest, **kwargs):
            values, vectors = true_eigh(*args, **kwargs)
            if len(values) == largest:
                vectors[0, largest // 2] += 1e-6
            return values, vectors

        monkeypatch.setattr(states.scipy.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError, match="eigenpair residuals"):
            spectrum(h)


# models and the number of exact blocks of their dense H
BLOCK_MODELS = [
    ("pinning", {"n": 4}, 16),  # diagonal: every row its own block
    ("heisenberg-ferro", {"n": 6}, 7),  # S_z sectors
    ("aklt", {"n": 4}, 9),  # S_z sectors
    ("toric-code", {"lx": 2, "ly": 2}, 32),  # syndrome sectors
    ("parent-random", {"n": 4, "d": 3, "bond": 2, "seed": 2}, 1),  # complex, one block
    # complex, one block of 729 rows: its vectors are orthonormal to 1e-12 under "evd" only
    ("parent-random", {"n": 6, "d": 3, "bond": 2, "seed": 2}, 1),
]


@pytest.mark.parametrize("name, params, count", BLOCK_MODELS)
def test_dense_spectrum_splits_into_exact_blocks(name, params, count):
    h = build_model(ModelDescriptor.make(name, **params))
    spec, dim = spectrum(h), h.sites.dim
    assert len(spec.blocks) == count
    owner = np.empty(dim, int)
    for b, (rows, cols, block_vectors) in enumerate(spec.blocks):
        owner[rows] = b
        assert block_vectors.shape == (len(rows), len(cols))
    # each column is nonzero on the rows of exactly one block
    vectors = spec.columns()
    for j in range(dim):
        assert len(set(owner[np.flatnonzero(vectors[:, j])])) == 1
    assert np.abs(vectors.conj().T @ vectors - np.eye(dim)).max() < 1e-12
    assert np.abs(spec.values - np.linalg.eigvalsh(dense_hamiltonian(h))).max() < 1e-12
    gs = ground_space(h, spec)
    for q in (1.0, 4.0, 16.0):
        measured = gaussian_filter_deviation(q, gs, spectrum_data=spec)
        assert abs(measured - dense_filter_deviation(h, q, gs)) < 1e-12


@pytest.mark.parametrize("name, params, count", BLOCK_MODELS)
def test_dense_spectrum_residuals_match_full_product(name, params, count):
    # the packed check gives each column the residual of one H product on all of them
    h = build_model(ModelDescriptor.make(name, **params))
    spec = spectrum(h)
    vectors = spec.columns()
    full = states.hamiltonian_apply(h, vectors) - vectors * spec.values
    assert np.abs(spec.residuals - np.linalg.norm(full, axis=0)).max() <= 1e-15


def test_dense_spectrum_checks_the_leak_between_blocks(monkeypatch):
    # 1e-6 at an entry of the packed product that no column owns: a row of a block
    # smaller than the largest, in a packed column at or past that block's size
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=4))  # S_z blocks 1, 4, 6, 4, 1
    rows = [rows for rows, _, _ in spectrum(h).blocks]
    width = max(map(len, rows))
    small = min(rows, key=len)
    true_apply = states.hamiltonian_apply

    def leaking(h, arr):
        out = true_apply(h, arr)
        out[small[0], width - 1] += 1e-6
        return out

    monkeypatch.setattr(states, "hamiltonian_apply", leaking)
    with pytest.raises(ConvergenceError, match="eigenpair residuals"):
        spectrum(h)


def test_dense_spectrum_catches_a_wrong_block_split(monkeypatch):
    # the 6-row S_z = 0 block of heisenberg-ferro(4) cut into 5 + 1 rows: the split
    # blocks' vectors are not eigenvectors of H
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=4))
    true_blocks = states.exact_blocks

    def cut(entries, dim):
        parts = []
        for rows in true_blocks(entries, dim):
            parts += [rows[:5], rows[5:]] if len(rows) == 6 else [rows]
        return parts

    monkeypatch.setattr(states, "exact_blocks", cut)
    with pytest.raises(ConvergenceError, match="eigenpair residuals"):
        spectrum(h)


def test_dense_spectrum_checks_the_last_column_chunk(monkeypatch):
    # heisenberg-ferro(11): the two largest blocks, 462 rows each, span several column chunks
    # of the residual check; only their last vectors, in the last chunk, are tilted
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=11))
    width = 462
    assert max(width ** 2, states.RESIDUAL_CHUNK_FLOOR) // h.sites.dim < width
    true_eigh = states._block_eigh

    def tilted(block):
        values, vectors = true_eigh(block)
        if len(values) == width:
            vectors[:, -1] += 1e-6 * vectors[:, 0]
        return values, vectors

    monkeypatch.setattr(states, "_block_eigh", tilted)
    with pytest.raises(ConvergenceError, match="eigenpair residuals"):
        spectrum(h)


def test_ground_space_refuses_a_ground_vector_returned_twice(monkeypatch):
    # heisenberg-ferro(4): each 4-row S_z block returns its ground pair in place of its second
    # one, an exact eigenpair, so every residual passes and only the ground basis is wrong
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=4))
    true_eigh = states._block_eigh

    def doubled(block):
        values, vectors = true_eigh(block)
        if len(values) == 4:
            values[1], vectors[:, 1] = values[0], vectors[:, 0]
        return values, vectors

    monkeypatch.setattr(states, "_block_eigh", doubled)
    with pytest.raises(ConvergenceError, match="not orthonormal"):
        ground_space(h, spectrum(h))


def test_eigh_driver_is_divide_and_conquer_for_every_block(monkeypatch):
    # MRRR ("evr") would be faster on large complex blocks, but leaves their vectors
    # orthonormal to about 1e-12 only (3.6e-12 on the 729 rows of parent-random(6,3,2,2)):
    # the real S_z sectors and the complex blocks of 81, 256 and 729 rows all use "evd"
    true_eigh = states.scipy.linalg.eigh
    seen = []

    def recording(a, *args, driver=None, **kwargs):
        seen.append((np.iscomplexobj(a), len(a), driver))
        return true_eigh(a, *args, driver=driver, **kwargs)

    monkeypatch.setattr(states.scipy.linalg, "eigh", recording)
    for name, params in [("heisenberg-ferro", {"n": 8}),
                         ("parent-random", {"n": 4, "d": 3, "bond": 2, "seed": 2}),
                         ("parent-random", {"n": 8, "d": 2, "bond": 1, "seed": 4}),
                         ("parent-random", {"n": 6, "d": 3, "bond": 2, "seed": 2})]:
        spectrum(build_model(ModelDescriptor.make(name, **params)))
    assert {driver for _, _, driver in seen} == {"evd"}
    assert any(not is_complex for is_complex, _, _ in seen)
    assert [size for is_complex, size, _ in seen if is_complex] == [81, 256, 729]


def test_complex_dense_spectrum_and_filter():
    # eigh diagonalizes conj(H) in place; the vectors must come back conjugated
    phi = np.array([0.0, 1j, -1.0, 0.0]) / np.sqrt(2)
    h = HamiltonianSpec(qubits(5), tuple(LocalTerm((i, i + 1), np.outer(phi, phi.conj()))
                                         for i in range(4)))
    spec = spectrum(h)
    vectors = spec.columns()
    assert np.iscomplexobj(vectors)
    assert np.abs(dense_hamiltonian(h) @ vectors - vectors * spec.values).max() < 1e-12
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


@pytest.mark.parametrize("descriptor", [*BUNDLED_MODELS, *(
    ModelDescriptor.make(name, **params) for name, params, _ in BLOCK_MODELS)],
    ids=lambda desc: desc.label())
def test_term_blocks_are_the_dense_components(descriptor):
    # the blocks found from the terms are the components of the dense matrix's pattern, in
    # the same order (which fixes the ground basis), and each assembled block is the dense
    # matrix on its rows, bit for bit
    h = build_model(descriptor)
    mat = states.hamiltonian_matrix(h)
    blocks = _assert_blocks_assemble_h(h)
    assert [rows.tolist() for rows in blocks] == [rows.tolist() for rows in components(mat)]


def _assert_blocks_assemble_h(h):
    """The blocks found from the terms, once each assembled block is H on its rows, bit for bit."""
    entries = states.term_entries(h)
    blocks = states.exact_blocks(entries, h.sites.dim)
    flat, starts = states.block_matrices(entries, blocks)
    mat = states.hamiltonian_matrix(h)
    for rows, start in zip(blocks, starts):
        block = flat[start:start + len(rows) ** 2].reshape(len(rows), len(rows))
        assert block.tobytes() == mat[np.ix_(rows, rows)].tobytes()
    return blocks


def test_cancelling_terms_give_a_coarser_exact_block():
    # the projectors onto (|01> + |10>) / sqrt 2 and (|01> - |10>) / sqrt 2 have opposite
    # off-diagonal entries, which cancel in H = diag(0, 1, 1, 0): H's own pattern splits
    # every row, but the union of the terms' patterns joins rows 1 and 2.  The merged block
    # is still exact, so the spectrum is H's
    plus, minus = np.array([0, 1, 1, 0]) / np.sqrt(2), np.array([0, 1, -1, 0]) / np.sqrt(2)
    h = HamiltonianSpec(qubits(2), (LocalTerm((0, 1), np.outer(plus, plus)),
                                    LocalTerm((0, 1), np.outer(minus, minus))))
    mat = states.hamiltonian_matrix(h)
    assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
    assert [rows.tolist() for rows in components(mat)] == [[0], [1], [2], [3]]
    assert [rows.tolist() for rows in _assert_blocks_assemble_h(h)] == [[0], [1, 2], [3]]
    assert np.abs(spectrum(h).values - np.linalg.eigvalsh(mat)).max() < 1e-15


@pytest.mark.parametrize("name, n, share", [
    # 4096 one-row blocks: the dense assembly with its (dim, dim) pattern peaked at 1.13 arrays
    ("pinning", 12, 0.5),
    # 12 and 13 S_z blocks, the largest 462 and 924: that assembly peaked at 1.9, and a residual
    # check on all the packed columns at once at 0.81 and 0.80
    ("heisenberg-ferro", 11, 0.5),
    ("heisenberg-ferro", 12, 0.5),
])
def test_dense_spectrum_forms_no_dim_square_array(name, n, share):
    # the peak of the dense spectrum stays under a share of one (dim, dim) array of H's dtype
    h = build_model(ModelDescriptor.make(name, n=n))
    itemsize = np.dtype(complex if states._is_complex(h) else float).itemsize
    tracemalloc.start()
    try:
        spectrum(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < share * h.sites.dim ** 2 * itemsize


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


def _assert_kernel_is_dense_ground_space(h: HamiltonianSpec) -> np.ndarray:
    """Asserts the kernel spans the oracle's ground space; returns the oracle's eigenvalues."""
    kernel = ground_kernel(h)
    evals, evecs = np.linalg.eigh(dense_hamiltonian(h))
    dense = evecs[:, evals <= states.GROUND_TOL_SCALE * (1.0 + h.norm_bound())]
    assert kernel.shape == dense.shape
    cosines = np.linalg.svd(dense.conj().T @ kernel, compute_uv=False)
    assert cosines.min() >= 1 - 1e-10
    assert np.linalg.norm(states.hamiltonian_apply(h, kernel)) <= 1e-10
    return evals


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
    h = _planted_product(n, d, edges, ranks, seed, is_complex)
    evals = _assert_kernel_is_dense_ground_space(h)
    # the random edge sets leave random exact-zero patterns: where they split H, the
    # blocks of the dense spectrum must give the oracle's eigenvalues (a connected H is
    # one in-place eigh, as in the complex and one-block tests, and is skipped for time)
    if len(states.exact_blocks(states.term_entries(h), h.sites.dim)) > 1:
        assert np.abs(spectrum(h).values - evals).max() <= 1e-12 * (1.0 + h.norm_bound())


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
    partial = SpectrumData(spec.values[:deg], spec.residuals[:deg],
                           ((np.arange(heis6.h.sites.dim), np.arange(deg), spec.columns(deg)),))
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
    # the certified value is an upper bound at most FILTER_SLACK (9.1e-13) above the norm
    for model in corpus:
        spec = spectrum(model.h)
        for q in (1.0, 4.0, 16.0):
            measured = gaussian_filter_deviation(q, model.gs, spectrum_data=spec)
            oracle = dense_filter_deviation(model.h, q, model.gs)
            assert -1e-15 <= measured - oracle < 1e-12, model.label


def _count_filter_paths(monkeypatch):
    """Counters of the certificates that held and failed and of the eigvalsh fallbacks."""
    counts = {"held": 0, "failed": 0, "eigvalsh": 0}
    certify, eigh = states._certified_norm, scipy.linalg.eigh

    def certified_norm(diff, probe):
        norm = certify(diff, probe)
        counts["failed" if norm is None else "held"] += 1
        return norm

    def spy_eigh(*args, **kwargs):
        counts["eigvalsh"] += bool(kwargs.get("eigvals_only"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(states, "_certified_norm", certified_norm)
    monkeypatch.setattr(scipy.linalg, "eigh", spy_eigh)
    return counts


def test_filter_certificate_holds_on_every_block(monkeypatch, corpus):
    # every multi-row block of the corpus and of heisenberg-ferro(11) (12 S_z blocks, the
    # largest 462) is certified with no eigvalsh: a slack too small would always fall back
    heis11 = build_model(ModelDescriptor.make("heisenberg-ferro", n=11))
    models = [(model.h, model.gs) for model in corpus]
    spectra = [spectrum(h) for h, _ in models] + [spectrum(heis11)]
    models.append((heis11, ground_space(heis11, spectra[-1])))
    counts = _count_filter_paths(monkeypatch)
    blocks = 0
    for (h, gs), spec in zip(models, spectra):
        for q in (1.0, 4.0, 16.0):
            gaussian_filter_deviation(q, gs, spectrum_data=spec)
        blocks += 3 * sum(len(rows) > 1 for rows, _, _ in spec.blocks)
    assert counts == {"held": blocks, "failed": 0, "eigvalsh": 0}
    assert blocks > 0


@pytest.mark.parametrize("dtype", [float, complex])
def test_filter_certificate_bounds_both_signs(dtype):
    # D = U diag(0.9, 0.3, low, 0) U^H: certified at its top eigenvector when low = -0.5;
    # not at the 0.3 one (the first factorization fails), nor when low = -0.95 puts the
    # norm on the negative side, which only the second factorization sees
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.standard_normal((4, 4)).astype(dtype)
                     + (1j * rng.standard_normal((4, 4)) if dtype is complex else 0))[0]
    matrix = lambda low: np.asfortranarray((u * [0.9, 0.3, low, 0.0]) @ u.conj().T)
    # _certified_norm takes the Rayleigh quotient at conj(probe)
    assert states._certified_norm(matrix(-0.5), u[:, 0].conj()) == pytest.approx(
        0.9 + states.FILTER_SLACK, abs=1e-15)
    assert states._certified_norm(matrix(-0.5), u[:, 1].conj()) is None
    assert states._certified_norm(matrix(-0.95), u[:, 0].conj()) is None


def test_filter_certificate_fails_on_a_broken_ground_basis(monkeypatch, heis6):
    # ground column 0 replaced by the first excited eigenvector: filt - proj is largest on
    # the ground state left out, not at the first excited one, so the certificate fails and
    # eigvalsh measures the block; the spectral-filter record reads 0.1338 (q = 16)
    spec, deg = spectrum(heis6.h), heis6.gs.degeneracy
    basis = heis6.gs.basis.copy()
    basis[:, 0] = spec.columns(deg + 1)[:, deg]
    broken = dataclasses.replace(heis6.gs, basis=basis)
    counts = _count_filter_paths(monkeypatch)
    measured = gaussian_filter_deviation(16.0, broken, spectrum_data=spec)
    assert counts["failed"] >= 1 and counts["eigvalsh"] == counts["failed"]
    assert abs(measured - dense_filter_deviation(heis6.h, 16.0, broken)) < 1e-12


# ---------------------------------------------------------------------------
# one threaded BLAS pool per run
# ---------------------------------------------------------------------------

PINNING_GAP = {"command": "gap", "model": {"name": "pinning", "parameters": {"n": 4}}}


def blas_thread_readers():
    """The thread counts of numpy's and scipy's OpenBLAS, read through the real libraries."""
    numpy_threads = states._numpy_blas_threads()
    if numpy_threads is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread setter of its own")
    scipy_threads = states._openblas_threads("scipy.linalg._fblas")
    return numpy_threads[0], (scipy_threads or (lambda: None,))[0]


def test_blas_pool_is_one_numpy_thread_inside_run_and_restored_after(monkeypatch):
    numpy_get, scipy_get = blas_thread_readers()
    before, scipy_before = numpy_get(), scipy_get()
    seen = []
    step_gap = runner._step_gap

    def observed(ctx):
        seen.append((numpy_get(), scipy_get()))
        step_gap(ctx)

    monkeypatch.setattr(runner, "_step_gap", observed)
    run(RunConfig.from_document(PINNING_GAP))
    assert seen == [(1, scipy_before)]
    assert (numpy_get(), scipy_get()) == (before, scipy_before)

    def failing(ctx):
        seen.append((numpy_get(), scipy_get()))
        raise RuntimeError("step failed")

    monkeypatch.setattr(runner, "_step_gap", failing)
    with pytest.raises(RuntimeError, match="step failed"):
        run(RunConfig.from_document(PINNING_GAP))
    assert seen[-1] == (1, scipy_before)
    assert (numpy_get(), scipy_get()) == (before, scipy_before)


def test_blas_pool_is_one_numpy_thread_in_an_iterative_solve_outside_a_run(monkeypatch):
    # a library caller's ARPACK solve enters the pool itself, and gives the count back
    numpy_get, _ = blas_thread_readers()
    before, seen = numpy_get(), []
    eigsh = states.spla.eigsh

    def observed(*args, **kwargs):
        seen.append(numpy_get())
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(states.spla, "eigsh", observed)
    monkeypatch.setattr(states, "DENSE_CUTOFF", 32)
    spectrum(build_model(ModelDescriptor.make("aklt", n=6)))  # dim 729: the iterative regime
    assert seen == [1]
    assert numpy_get() == before


def test_blas_pool_nested_restores_the_outer_count():
    numpy_get, _ = blas_thread_readers()
    before = numpy_get()
    with states.single_blas_pool():
        with states.single_blas_pool():
            assert numpy_get() == 1
        assert numpy_get() == 1
    assert numpy_get() == before


def test_blas_pool_does_nothing_without_a_setter(monkeypatch):
    numpy_get, _ = blas_thread_readers()
    before = numpy_get()
    monkeypatch.setattr(states, "_numpy_blas_threads", lambda: None)
    with states.single_blas_pool():
        assert numpy_get() == before
    # the real lookup finds no setter in an extension that links no OpenBLAS, or in a
    # module that is no shared library
    assert states._openblas_threads("numpy.random._generator") is None
    assert states._openblas_threads("json") is None


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
