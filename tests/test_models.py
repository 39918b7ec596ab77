"""Bundled model constructors and their recorded facts."""
import numpy as np
import pytest

from dl_lab.errors import ValidationError
from dl_lab.hamiltonian import validate_frustration_free
from dl_lab.models import (BUNDLED_MODELS, ModelDescriptor, aklt_projector,
                           build_model, build_parent_random, random_mps_state)
from dl_lab.states import ground_space, spectrum

from oracles import dense_hamiltonian


def test_pinning_structure():
    h = build_model(ModelDescriptor.make("pinning", n=3))
    assert h.m == 3
    assert all(t.k == 1 and t.is_projector for t in h.terms)
    gs = ground_space(h, spectrum(h))
    assert gs.degeneracy == 1
    assert gs.gap == pytest.approx(1.0)


def test_heisenberg_two_sites():
    h = build_model(ModelDescriptor.make("heisenberg-ferro", n=2))
    assert h.m == 1
    # oracle: 4x4 diagonalization of the single singlet projector
    evals = np.linalg.eigvalsh(h.terms[0].matrix)
    assert np.allclose(evals, [0, 0, 0, 1], atol=1e-12)
    assert ground_space(h, spectrum(h)).degeneracy == 3


def test_aklt_term_projects_spin_two():
    term = aklt_projector()
    assert np.abs(term @ term - term).max() < 1e-12
    assert np.linalg.matrix_rank(term) == 5


def test_aklt_open_fourfold_ground(aklt4):
    assert aklt4.gs.degeneracy == 4


def test_aklt_ring_unique_ground(aklt6p):
    assert aklt6p.gs.degeneracy == 1


def test_toric_code_counts(toric22):
    h = toric22.h
    assert h.sites.n == 8
    assert h.m == 8
    assert all(t.k == 4 and t.is_projector for t in h.terms)
    assert toric22.gs.degeneracy == 4
    assert toric22.gs.gap == pytest.approx(2.0, abs=1e-10)


def test_toric_code_too_small():
    with pytest.raises(ValidationError):
        build_model(ModelDescriptor.make("toric-code", lx=1, ly=2))


def test_unknown_model_name():
    with pytest.raises(ValidationError):
        build_model(ModelDescriptor.make("ising", n=4))


def test_projector_flag_honest(corpus):
    for model in corpus:
        for term in model.h.terms:
            assert np.abs(term.matrix @ term.matrix - term.matrix).max() < 1e-12


def test_every_bundled_model_frustration_free_and_gapped(corpus):
    for model in corpus:
        assert validate_frustration_free(model.h, model.gs).max_residual <= 1e-8, model.label
        assert model.gs.gap > 0, model.label


def test_expected_facts_hold(corpus):
    by_label = {model.descriptor.label(): model for model in corpus}
    for descriptor in BUNDLED_MODELS:
        model = by_label.get(descriptor.label())
        if model is None:
            h = build_model(descriptor)
            gs = ground_space(h, spectrum(h))
        else:
            gs = model.gs
        facts = dict(descriptor.expected)
        if "degeneracy" in facts:
            assert gs.degeneracy == facts["degeneracy"], descriptor.label()
        if "gap" in facts:
            assert gs.gap == pytest.approx(facts["gap"], abs=1e-9), descriptor.label()


def test_seed_determinism():
    one = build_model(ModelDescriptor.make("parent-random", n=6, d=3, bond=2, seed=2))
    two = build_model(ModelDescriptor.make("parent-random", n=6, d=3, bond=2, seed=2))
    for t1, t2 in zip(one.terms, two.terms):
        assert np.array_equal(t1.matrix, t2.matrix)
    other = build_model(ModelDescriptor.make("parent-random", n=6, d=3, bond=2, seed=3))
    assert any(not np.array_equal(t1.matrix, t2.matrix)
               for t1, t2 in zip(one.terms, other.terms))


def test_parent_bond_one_is_product_parent(parent821):
    h = parent821.h
    d = h.sites.d
    for term in h.terms:
        assert np.linalg.matrix_rank(term.matrix) == d * d - 1
    target = random_mps_state(8, 2, 1, 4)
    overlap = abs(parent821.gs.omega.inner(target))
    assert parent821.gs.degeneracy == 1
    assert overlap >= 1 - 1e-9


def test_parent_full_range_pairs_dropped():
    with pytest.warns(UserWarning, match="full range"):
        h = build_parent_random(8, 2, 2, 7)
    assert h.m == 2
    assert {t.support for t in h.terms} == {(0, 1), (6, 7)}
    gs = ground_space(h, spectrum(h))
    assert gs.degeneracy == 64
    assert gs.gap == pytest.approx(1.0, abs=1e-9)
    target = random_mps_state(8, 2, 2, 7)
    residual = dense_hamiltonian(h) @ target.amplitudes
    assert np.linalg.norm(residual) < 1e-10


def test_parent_parameter_validation():
    with pytest.raises(ValidationError):
        build_parent_random(2, 2, 1, 0)
    with pytest.raises(ValidationError):
        build_parent_random(6, 2, 3, 0)


def test_descriptor_labels_stable():
    descriptor = ModelDescriptor.make("aklt", n=6, periodic=True)
    assert descriptor.label() == "aklt(n=6,periodic=True)"
