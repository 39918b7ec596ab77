"""The layered alternating-projection operator A and its quantitative checks.

A is the product of per-layer ground-space projectors of a frustration-free
projector Hamiltonian.  It fixes the ground space and contracts the
orthogonal complement by at least (eps/f + 1)^(-1/3); this module builds A,
measures that contraction against the bound, reorders A into pyramid
triples on two-layer chains, and tracks A^l convergence to the ground
projector.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .hamiltonian import HamiltonianSpec, LayerPartition, partition_layers
from .states import GroundSpaceData, StateVector, apply_term_array, restricted_norm


@dataclass(frozen=True)
class DLOperator:
    """Product of per-layer complement projectors P_i = 1 - Q_i.

    The operator owns its term order: layer_order, built once by dl_operator, is
    the order in which the terms hit a state, and every reading of A (its
    applications, the causality cone, the pyramid reordering) follows it.
    f_value is the constant f of the contraction bound (eps/f + 1)^(-1/3):
    None for a single layer, which projects exactly; 2 on a two-layer
    nearest-neighbor chain; the crude (g-1) k^g otherwise.
    """

    h: HamiltonianSpec
    partition: LayerPartition
    layer_order: tuple[tuple[int, ...], ...]  # application order, first-applied first
    complements: tuple[np.ndarray, ...] = field(repr=False)
    f_value: float | None

    @property
    def g(self) -> int:
        return self.partition.g

    def shrink_bound(self, gap: float) -> float:
        """Bound on the norm of A restricted to the ground complement."""
        return dl_bound(gap, self.f_value)

    def apply_terms(self, indices, arr: np.ndarray) -> np.ndarray:
        """Apply the complement projectors of the given terms, first-listed first."""
        n, d = self.h.sites.n, self.h.sites.d
        for idx in indices:
            arr = apply_term_array(self.complements[idx], self.h.terms[idx].support, arr, n, d)
        return arr

    def apply_array(self, arr: np.ndarray) -> np.ndarray:
        return self.apply_terms((idx for layer in self.layer_order for idx in layer), arr)

    def adjoint_apply_array(self, arr: np.ndarray) -> np.ndarray:
        return self.apply_terms(
            (idx for layer in reversed(self.layer_order) for idx in reversed(layer)), arr)

    def apply(self, psi: StateVector) -> StateVector:
        if psi.sites.dim != self.h.sites.dim:
            raise ValidationError("state dimension does not match the operator")
        return StateVector(self.apply_array(psi.amplitudes), psi.sites)


def dl_operator(h: HamiltonianSpec) -> DLOperator:
    if not h.all_projectors():
        raise ValidationError("the DL operator needs projector terms; run projectorize first")
    part = partition_layers(h)
    # first-applied first: the layer holding the first term is applied last, which on a
    # two-layer chain is the order the pyramid reordering assumes; within a layer, by
    # ascending leftmost support site
    order = tuple(tuple(sorted(layer, key=lambda idx: (min(h.terms[idx].support), idx)))
                  for layer in reversed(part.layers))
    complements = tuple(np.eye(t.matrix.shape[0]) - t.matrix for t in h.terms)
    if part.g == 1:
        f_value = None
    elif is_two_layer_chain(h, part):
        f_value = 2.0
    else:
        f_value = float(part.g - 1) * float(h.max_k) ** part.g
    return DLOperator(h, part, order, complements, f_value)


def dl_bound(epsilon: float, f: float | None) -> float:
    """Contraction bound (epsilon/f + 1)^(-1/3); a single layer (f None) gives 0."""
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if f is None:
        return 0.0
    if f <= 0:
        raise ValidationError("f must be positive")
    return (epsilon / f + 1.0) ** (-1.0 / 3.0)


def is_two_layer_chain(h: HamiltonianSpec, partition: LayerPartition) -> bool:
    """Nearest-neighbor two-local chain split into at most two layers."""
    if not h.sites.is_chain() or partition.g > 2:
        return False
    edges = {frozenset(e) for e in h.sites.edges()}
    return all(t.k == 2 and frozenset(t.support) in edges for t in h.terms)


def measure_shrinkage(a: DLOperator, gs: GroundSpaceData) -> float:
    """Norm of A on the ground complement (one restricted_norm solve), to set
    against a.shrink_bound(gs.gap)."""
    return restricted_norm(a.apply_array, a.adjoint_apply_array, gs)


# ---------------------------------------------------------------------------
# pyramid reordering on two-layer open chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PyramidDecomposition:
    """Reordering of A into triples plus a commuting remainder.

    Pyramid triples and the remainder are tuples of chain positions (1-based
    along the chain); applied right to left they reproduce A.  order holds the
    term indices in that application order: the remainder first, then the
    triples right to left, each triple right to left.
    """

    pyramids: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]
    order: tuple[int, ...]


def _chain_positions(a: DLOperator) -> dict[int, int]:
    """Map 1-based bond position -> term index for an open two-layer chain."""
    h = a.h
    if h.sites.geometry.kind != "chain-open":
        raise ValidationError("pyramid decomposition is defined on open chains only")
    if a.g != 2:
        raise ValidationError("pyramid decomposition needs exactly two layers")
    pos: dict[int, int] = {}
    for idx, term in enumerate(h.terms):
        if term.k != 2 or max(term.support) - min(term.support) != 1:
            raise ValidationError("pyramid decomposition needs nearest-neighbor pair terms")
        p = min(term.support) + 1
        if p in pos:
            raise ValidationError(f"duplicate term on bond {p}")
        pos[p] = idx
    if sorted(pos) != list(range(1, h.sites.n)):
        raise ValidationError("pyramid decomposition needs a term on every bond")
    return pos


def pyramid_applicable(a: DLOperator) -> bool:
    """Whether A admits the pyramid reordering: one pair term per open-chain bond."""
    try:
        _chain_positions(a)
    except ValidationError:
        return False
    return True


def pyramid_decompose(a: DLOperator) -> tuple[PyramidDecomposition, PyramidDecomposition]:
    """Both coverings of A by pyramid triples.

    Primary: triples (4i-3, 4i-1, 4i-2) with remainder 4, 8, ...; shifted:
    triples (4i-1, 4i+1, 4i) with the orphan first bond and remainder
    2, 6, ....  Positions past the chain end are dropped.
    """
    positions = _chain_positions(a)
    m = max(positions)

    def covering(variant: str, start: int) -> PyramidDecomposition:
        pyramids = [(1,)] if variant == "shifted" else []
        pyramids += [tuple(p for p in (i, i + 2, i + 1) if p <= m) for i in range(start, m + 1, 4)]
        covered = {p for triple in pyramids for p in triple}
        remainder = tuple(p for p in range(1, m + 1) if p not in covered)
        seq = remainder + tuple(p for triple in reversed(pyramids) for p in reversed(triple))
        if sorted(seq) != list(range(1, m + 1)):
            raise ValidationError(f"{variant} covering does not partition the bonds")
        return PyramidDecomposition(tuple(pyramids), remainder, tuple(positions[p] for p in seq))

    return covering("primary", 1), covering("shifted", 3)


def apply_pyramids(a: DLOperator, decomposition: PyramidDecomposition,
                   psi: StateVector) -> StateVector:
    """Evaluate Delta_1 ... Delta_M R |psi> (remainder applied first)."""
    return StateVector(a.apply_terms(decomposition.order, psi.amplitudes), psi.sites)


# ---------------------------------------------------------------------------
# norm-energy trade-off and convergence
# ---------------------------------------------------------------------------

def _checked_basis(q, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(Q, Q^H) for Q or a stack of them; ValidationError unless |Q^H Q - diag(used)| <= 1e-10:
    each column a unit vector or zero, the unit ones orthonormal, so Q Q^H is a projector."""
    q = np.asarray(q)
    q_h = np.swapaxes(q, -1, -2).conj()
    gram = (q_h @ q).reshape(*q.shape[:-2], -1)  # each Gram matrix flat, row after row
    gram[..., ::q.shape[-1] + 1] -= gram[..., ::q.shape[-1] + 1].real > 0.5
    bad = np.abs(gram).max(axis=-1, initial=0.0) > 1e-10
    if bad.any():
        where = f"{name}[{int(np.argmax(bad))}]" if bad.ndim else name
        raise ValidationError(f"{where} does not have orthonormal columns")
    return q, q_h


def norm_energy_check(x_basis: np.ndarray, y_basis: np.ndarray, v: np.ndarray,
                      x_complement=False, y_complement=False):
    """Evaluate ||(1-Y)XYv||^2 against eps(1-eps) with eps = 1 - ||XYv||^2.

    X and Y are each given by a (dim, h) basis Q of orthonormal or zero columns: Q Q^H,
    or 1 - Q Q^H where its complement flag is set, applied as Q (Q^H w).  Floats for one
    pair; for stacks (m, dim, h) and (m, dim), with flags of m entries or one for all,
    every member is checked and the sides are arrays of m entries.
    """
    def project(basis, complement, w):  # w - Q Q^H w where complement, Q Q^H w elsewhere
        inside = basis[0] @ (basis[1] @ w)
        return np.where(np.asarray(complement)[..., None, None], w - inside, inside)

    x, y = _checked_basis(x_basis, "X"), _checked_basis(y_basis, "Y")
    vec = np.asarray(v, dtype=complex)[..., None]
    if (np.abs(np.linalg.norm(vec, axis=(-2, -1)) - 1.0) > 1e-10).any():
        raise ValidationError("v must be normalized")
    xyv = project(x, x_complement, project(y, y_complement, vec))
    eps = 1.0 - np.linalg.norm(xyv, axis=(-2, -1)) ** 2
    lhs = np.linalg.norm(project(y, np.logical_not(y_complement), xyv), axis=(-2, -1)) ** 2
    rhs = eps * (1.0 - eps)
    return (float(lhs), float(rhs)) if lhs.ndim == 0 else (lhs, rhs)


def step_inequality_margin(x: float | np.ndarray, m: int | np.ndarray) -> float | np.ndarray:
    """Margin of the scalar step bound m(1 - x^(1/m)) <= (1 - x)/sqrt(x), elementwise."""
    if not (np.all((0 < x) & (x <= 1)) and np.all(m >= 1)):
        raise ValidationError("need x in (0, 1] and m >= 1")
    return (1.0 - x) / np.sqrt(x) - m * (1.0 - x ** (1.0 / m))


@dataclass(frozen=True)
class ConvergenceTrace:
    """Residuals of A^l psi against the ground projection of psi."""

    shrink_bound: float
    perp_norm: float
    residuals: tuple[float, ...]

    def rows(self) -> tuple[tuple[int, float, float], ...]:
        return tuple(
            (l + 1, r, self.shrink_bound ** (l + 1) * self.perp_norm)
            for l, r in enumerate(self.residuals)
        )


def converge(a: DLOperator, gs: GroundSpaceData, psi: StateVector,
             l_max: int) -> ConvergenceTrace:
    """Track ||A^l psi - Pi_gs psi|| for l = 1..l_max."""
    if l_max < 1:
        raise ValidationError("l_max must be at least 1")
    if psi.sites.dim != a.h.sites.dim:
        raise ValidationError("state dimension does not match the operator")
    bound = a.shrink_bound(gs.gap)
    target = gs.basis @ (gs.basis.conj().T @ psi.amplitudes)
    perp = float(np.linalg.norm(psi.amplitudes - target))
    current = psi.amplitudes
    residuals = []
    for _ in range(l_max):
        current = a.apply_array(current)
        residuals.append(float(np.linalg.norm(current - target)))
    return ConvergenceTrace(bound, perp, tuple(residuals))
