"""Shared fixtures: the bundled model corpus, built once per session."""
from __future__ import annotations

from dataclasses import dataclass

import pytest

from dl_lab.dl import DLOperator, dl_operator
from dl_lab.hamiltonian import HamiltonianSpec
from dl_lab.models import ModelDescriptor, build_model
from dl_lab.states import GroundSpaceData, ground_space, spectrum


@dataclass(frozen=True)
class ModelFixture:
    descriptor: ModelDescriptor
    h: HamiltonianSpec
    gs: GroundSpaceData
    a: DLOperator

    @property
    def label(self) -> str:
        return self.descriptor.label()

    @property
    def unique(self) -> bool:
        return self.gs.degeneracy == 1


def _fixture(descriptor: ModelDescriptor) -> ModelFixture:
    h = build_model(descriptor)
    return ModelFixture(descriptor, h, ground_space(h, spectrum(h)), dl_operator(h))


@pytest.fixture(scope="session")
def pinning6():
    return _fixture(ModelDescriptor.make("pinning", n=6))


@pytest.fixture(scope="session")
def heis2():
    return _fixture(ModelDescriptor.make("heisenberg-ferro", n=2))


@pytest.fixture(scope="session")
def heis6():
    return _fixture(ModelDescriptor.make("heisenberg-ferro", n=6))


@pytest.fixture(scope="session")
def heis8():
    return _fixture(ModelDescriptor.make("heisenberg-ferro", n=8))


@pytest.fixture(scope="session")
def aklt4():
    return _fixture(ModelDescriptor.make("aklt", n=4))


@pytest.fixture(scope="session")
def aklt6p():
    return _fixture(ModelDescriptor.make("aklt", n=6, periodic=True))


@pytest.fixture(scope="session")
def toric22():
    return _fixture(ModelDescriptor.make("toric-code", lx=2, ly=2))


@pytest.fixture(scope="session")
def parent632():
    return _fixture(ModelDescriptor.make("parent-random", n=6, d=3, bond=2, seed=2))


@pytest.fixture(scope="session")
def parent821():
    return _fixture(ModelDescriptor.make("parent-random", n=8, d=2, bond=1, seed=4))


@pytest.fixture(scope="session")
def parent822():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _fixture(ModelDescriptor.make("parent-random", n=8, d=2, bond=2, seed=7))


@pytest.fixture(scope="session")
def corpus(pinning6, heis2, heis8, aklt4, aklt6p, toric22, parent632, parent821,
           parent822):
    """Every bundled model with its ground data and layered operator."""
    return (pinning6, heis2, heis8, aklt4, aklt6p, toric22, parent632, parent821,
            parent822)


@pytest.fixture(scope="session")
def unique_1d(pinning6, aklt6p, parent632, parent821):
    """Unique-ground-state chains, the area-law and correlation corpus."""
    return (pinning6, aklt6p, parent632, parent821)


@pytest.fixture(scope="session")
def unique_open(pinning6, parent632, parent821):
    """Unique-ground-state open chains, the window-measurement corpus."""
    return (pinning6, parent632, parent821)
