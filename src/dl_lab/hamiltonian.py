"""Local Hamiltonians as lists of projector terms on a site lattice.

Terms are stored as explicit dense matrices on their support; at desk
scale this keeps every contraction exact and simple.  The module also
converts bounded terms to projectors and splits the term list into
layers of mutually non-overlapping supports.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
PROJECTOR_TOL = 1e-10

GEOMETRY_KINDS = ("chain-open", "chain-periodic", "torus-2d", "custom-adjacency")


@dataclass(frozen=True)
class Geometry:
    """Lattice connectivity. For torus-2d the sites are the lattice edges."""

    kind: str
    lx: int | None = None
    ly: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in GEOMETRY_KINDS:
            raise ValidationError(f"unknown geometry kind {self.kind!r}")
        if self.kind == "torus-2d":
            if not (self.lx and self.ly) or self.lx < 2 or self.ly < 2:
                raise ValidationError("torus-2d needs lx >= 2 and ly >= 2")
        if self.kind == "custom-adjacency":
            if self.edges is None:
                raise ValidationError("custom-adjacency needs an edge list")
            normalized = tuple(sorted({(min(a, b), max(a, b)) for a, b in self.edges}))
            object.__setattr__(self, "edges", normalized)


def chain_geometry(periodic: bool = False) -> Geometry:
    return Geometry("chain-periodic" if periodic else "chain-open")


def torus_geometry(lx: int, ly: int) -> Geometry:
    return Geometry("torus-2d", lx=lx, ly=ly)


def custom_geometry(edges: Iterable[tuple[int, int]]) -> Geometry:
    return Geometry("custom-adjacency", edges=tuple(tuple(e) for e in edges))


@dataclass(frozen=True)
class SiteSpace:
    """n sites of uniform local dimension d arranged on a geometry."""

    n: int
    d: int
    geometry: Geometry

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one site")
        if self.d < 2:
            raise ValidationError("local dimension must be >= 2")
        # d**n must stay an exact int64 so downstream shape arithmetic cannot wrap
        if self.n > 62 or self.d ** self.n > 2 ** 62:
            raise ValidationError(
                f"total dimension {self.d}**{self.n} does not fit in 64-bit arithmetic"
            )
        g = self.geometry
        if g.kind == "torus-2d" and self.n != 2 * g.lx * g.ly:
            raise ValidationError(
                f"torus-2d {g.lx}x{g.ly} has {2 * g.lx * g.ly} edge sites, got n={self.n}"
            )
        if g.kind == "custom-adjacency":
            for a, b in g.edges:
                if not (0 <= a < self.n and 0 <= b < self.n):
                    raise ValidationError(f"edge ({a},{b}) out of range for n={self.n}")

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Adjacency pairs between sites (symmetric, stored as sorted pairs)."""
        g = self.geometry
        if g.kind == "chain-open":
            return tuple((i, i + 1) for i in range(self.n - 1))
        if g.kind == "chain-periodic":
            base = [(i, i + 1) for i in range(self.n - 1)]
            if self.n > 2:
                base.append((0, self.n - 1))
            return tuple(base)
        if g.kind == "custom-adjacency":
            return g.edges
        # torus-2d: edge sites are adjacent when they share a lattice vertex
        pairs = {pair for x in range(g.lx) for y in range(g.ly)
                 for pair in itertools.combinations(sorted(self.star_sites(x, y)), 2)}
        return tuple(sorted(pairs))

    def site_distance(self, a: int, b: int) -> int:
        """Graph distance in the adjacency defined by edges()."""
        if a == b:
            return 0
        adj: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for i, j in self.edges():
            adj[i].add(j)
            adj[j].add(i)
        frontier, seen, dist = {a}, {a}, 0
        while frontier:
            dist += 1
            frontier = {j for i in frontier for j in adj[i]} - seen
            if b in frontier:
                return dist
            seen |= frontier
        raise ValidationError(f"sites {a} and {b} are not connected")

    # torus-2d helpers; horizontal edges come first, then vertical ones
    def _h(self, x: int, y: int) -> int:
        g = self.geometry
        return (y % g.ly) * g.lx + (x % g.lx)

    def _v(self, x: int, y: int) -> int:
        g = self.geometry
        return g.lx * g.ly + (y % g.ly) * g.lx + (x % g.lx)

    def star_sites(self, x: int, y: int) -> tuple[int, int, int, int]:
        if self.geometry.kind != "torus-2d":
            raise ValidationError("star_sites only defined on torus-2d")
        return (self._h(x, y), self._h(x - 1, y), self._v(x, y), self._v(x, y - 1))

    def plaquette_sites(self, x: int, y: int) -> tuple[int, int, int, int]:
        if self.geometry.kind != "torus-2d":
            raise ValidationError("plaquette_sites only defined on torus-2d")
        return (self._h(x, y), self._v(x + 1, y), self._h(x, y + 1), self._v(x, y))

    def allowed_supports(self) -> set[frozenset[int]] | None:
        """Supports the geometry admits, or None when anything goes."""
        g = self.geometry
        if g.kind == "custom-adjacency":
            return None
        allowed = {frozenset((i,)) for i in range(self.n)}
        if g.kind in ("chain-open", "chain-periodic"):
            allowed |= {frozenset(e) for e in self.edges()}
        else:
            for x in range(g.lx):
                for y in range(g.ly):
                    allowed.add(frozenset(self.star_sites(x, y)))
                    allowed.add(frozenset(self.plaquette_sites(x, y)))
        return allowed

    def is_chain(self) -> bool:
        return self.geometry.kind in ("chain-open", "chain-periodic")


def _as_term_matrix(matrix) -> np.ndarray:
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"term matrix must be square, got shape {mat.shape}")
    if np.iscomplexobj(mat) and np.abs(mat.imag).max(initial=0.0) == 0.0:
        mat = mat.real
    return mat.astype(complex if np.iscomplexobj(mat) else float)


@dataclass(frozen=True)
class LocalTerm:
    """A Hermitian PSD operator acting on an ordered tuple of sites."""

    support: tuple[int, ...]
    matrix: np.ndarray
    is_projector: bool = False

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        if not self.support:
            raise ValidationError("a term needs at least one site")
        if len(set(self.support)) != len(self.support):
            raise ValidationError(f"support sites must be distinct, got {self.support}")
        mat = _as_term_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        if np.abs(mat - mat.conj().T).max(initial=0.0) > HERMITIAN_TOL * scale:
            raise ValidationError("term matrix is not Hermitian")
        evals = np.linalg.eigvalsh(mat)
        if evals.size and evals[0] < -PSD_TOL * scale:
            raise ValidationError(f"term matrix is not PSD (min eigenvalue {evals[0]:g})")
        if self.is_projector:
            if np.abs(mat @ mat - mat).max(initial=0.0) > PROJECTOR_TOL * scale:
                raise ValidationError("term flagged is_projector but matrix**2 != matrix")

    @property
    def k(self) -> int:
        return len(self.support)

    def norm(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.matrix)).max())


@dataclass(frozen=True)
class HamiltonianSpec:
    """A sum of local terms; the object of every analysis in this package."""

    sites: SiteSpace
    terms: tuple[LocalTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError("a Hamiltonian needs at least one term")
        allowed = self.sites.allowed_supports()
        for idx, term in enumerate(self.terms):
            for s in term.support:
                if not (0 <= s < self.sites.n):
                    raise ValidationError(f"term {idx}: site {s} out of range")
            expect = self.sites.d ** term.k
            if term.matrix.shape != (expect, expect):
                raise ValidationError(
                    f"term {idx}: matrix shape {term.matrix.shape} does not match "
                    f"d**k = {expect}"
                )
            if allowed is not None and frozenset(term.support) not in allowed:
                raise ValidationError(
                    f"term {idx}: support {term.support} is not an edge/plaquette "
                    f"of geometry {self.sites.geometry.kind}"
                )

    @property
    def m(self) -> int:
        return len(self.terms)

    @property
    def max_k(self) -> int:
        return max(t.k for t in self.terms)

    def all_projectors(self) -> bool:
        return all(t.is_projector for t in self.terms)

    def norm_bound(self) -> float:
        """Triangle-inequality bound on the operator norm."""
        return float(sum(t.norm() for t in self.terms))


@dataclass(frozen=True)
class LayerPartition:
    """Coloring of term indices into layers with pairwise disjoint supports."""

    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))

    @property
    def g(self) -> int:
        return len(self.layers)

    def validate(self, h: HamiltonianSpec) -> None:
        seen: list[int] = []
        for layer in self.layers:
            used: set[int] = set()
            for idx in layer:
                sup = set(h.terms[idx].support)
                if used & sup:
                    raise ValidationError(f"layer contains overlapping supports at term {idx}")
                used |= sup
            seen.extend(layer)
        if sorted(seen) != list(range(h.m)):
            raise ValidationError("layers must partition the term indices exactly once")


def partition_layers(h: HamiltonianSpec) -> LayerPartition:
    """Greedy coloring of the term-conflict graph, terms taken in index order.

    Two terms conflict when their supports intersect; each term goes to the
    smallest layer with no conflict.  On a nearest-neighbor open chain this
    reproduces the even/odd two-layer split.
    """
    supports = [set(t.support) for t in h.terms]
    layers: list[list[int]] = []
    layer_sites: list[set[int]] = []
    for idx, sup in enumerate(supports):
        for layer, sites in zip(layers, layer_sites):
            if not (sites & sup):
                layer.append(idx)
                sites |= sup
                break
        else:
            layers.append([idx])
            layer_sites.append(set(sup))
    part = LayerPartition(tuple(tuple(l) for l in layers))
    part.validate(h)
    return part


def projectorize(h: HamiltonianSpec) -> tuple[HamiltonianSpec, float]:
    """Replace each term by the projector onto its positive-energy eigenspace, and return
    K, the largest shifted term norm, with the projector Hamiltonian.

    Each term is first shifted so its smallest eigenvalue is 0; eigenvalues
    at most 1e-12 times the largest shifted eigenvalue count as ground.
    """
    new_terms = []
    max_norm = 0.0
    for idx, term in enumerate(h.terms):
        mat = term.matrix
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        evals, evecs = np.linalg.eigh(mat)
        evals = evals - evals[0]
        top = float(evals[-1])
        if top <= 1e-12 * scale:
            raise ValidationError(f"term {idx} is indistinguishable from zero after shifting")
        keep = evals > 1e-12 * top
        v = evecs[:, keep]
        q = v @ v.conj().T
        q = (q + q.conj().T) / 2.0
        new_terms.append(LocalTerm(term.support, q, is_projector=True))
        max_norm = max(max_norm, top)
    return HamiltonianSpec(h.sites, tuple(new_terms)), max_norm


@dataclass(frozen=True)
class FrustrationCheck:
    """How far each term is from annihilating the ground space."""

    max_residual: float
    residuals: tuple[float, ...]  # per term i, the largest ||Q_i v|| over ground vectors v


def validate_frustration_free(h: HamiltonianSpec, gs) -> FrustrationCheck:
    """The residuals ||Q_i v|| of every term i on every column v of the ground basis.

    Each term is applied once, to the whole (dim, deg) basis.
    """
    from .states import apply_term_array  # local import to avoid a cycle

    if gs.basis.shape[0] != h.sites.dim:
        raise ValidationError("ground vector dimension does not match the Hamiltonian")
    residuals = tuple(
        float(np.linalg.norm(apply_term_array(term.matrix, term.support, gs.basis, h.sites.n,
                                              h.sites.d), axis=0).max(initial=0.0))
        for term in h.terms)
    return FrustrationCheck(max(residuals, default=0.0), residuals)
