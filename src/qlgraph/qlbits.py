"""QL bits: two basis graphs coupled by random cross edges.

The composite graph stacks basis_1's vertices first, then basis_2's. With
positive unit coupling the top two eigenvalues are the in- and out-of-phase
combinations of the basis graphs' principal states, split by roughly
2*Delta with Delta = n_c / n.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .graphs import Graph, adjacency
from .rng import RngSeed
from .spectra import Spectrum, fix_sign

IN_PHASE = "in_phase"
OUT_OF_PHASE = "out_of_phase"
INDETERMINATE = "indeterminate"

# Relative tolerance below which the top pair counts as degenerate and is
# resolved explicitly against block-uniform vectors.
DEGENERACY_RTOL = 1e-9

# Least gap between the second and third eigenvalues of an isolated pair.
MIN_ISOLATION_GAP = 0.5


@dataclass(frozen=True, eq=False)
class QLBit:
    """Two coupled basis graphs and their block-structured composite.

    ``coupling_edges`` is an (n_c, 2) int64 array of (u, v) cross edges, u a
    vertex of basis_1 and v of basis_2, each of weight ``sign``. The
    composite is derived from the other fields: basis_1's vertices first,
    then basis_2's, plus the cross edges.
    """

    basis_1: Graph
    basis_2: Graph
    coupling_edges: np.ndarray
    sign: int
    composite: Graph = field(init=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidParameterError(f"sign must be +1 or -1, got {self.sign}")
        n1, n2 = self.basis_1.n_vertices, self.basis_2.n_vertices
        c = np.asarray(self.coupling_edges, dtype=np.int64).reshape(-1, 2)
        outside = ((c < 0) | (c >= (n1, n2))).any(axis=1)
        if outside.any():
            u, v = c[outside.argmax()]
            raise InvalidParameterError(f"coupling edge ({u},{v}) does not bridge the blocks")
        c.flags.writeable = False
        # Duplicate cross edges are duplicate composite edges, refused by Graph.
        composite = Graph(
            n1 + n2,
            np.concatenate([self.basis_1.edges, self.basis_2.edges + n1, c + (0, n1)]),
            np.concatenate([self.basis_1.weights, self.basis_2.weights,
                            np.full(len(c), float(self.sign))]))
        object.__setattr__(self, "coupling_edges", c)
        object.__setattr__(self, "composite", composite)

    @property
    def n_coupling(self) -> int:
        return len(self.coupling_edges)

    def block_uniform(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors J_0, J_1, uniform on basis_1's and basis_2's block."""
        n1, n2 = self.basis_1.n_vertices, self.basis_2.n_vertices
        j0 = np.zeros(n1 + n2)
        j0[:n1] = 1.0 / math.sqrt(n1)
        j1 = np.zeros(n1 + n2)
        j1[n1:] = 1.0 / math.sqrt(n2)
        return j0, j1


@dataclass(frozen=True)
class SplittingPrediction:
    """Predicted emergent pair d_eff +- Delta with Delta = n_c / n."""

    d_eff: float
    delta: float
    predicted_pair: tuple[float, float]


@dataclass(frozen=True, eq=False)
class EmergentState:
    eigenvalue: float
    eigenvector: np.ndarray
    phase: str


@dataclass(frozen=True)
class EmergentPair:
    """The QL bit's two emergent eigenpairs plus an isolation diagnostic.

    ``degraded_isolation`` is a warning, not an error: it fires when the
    second eigenvalue is not separated from the third by the detection
    threshold.
    """

    states: tuple[EmergentState, EmergentState]
    degraded_isolation: bool
    isolation_gap: float
    isolation_threshold: float

    def by_phase(self, phase: str) -> EmergentState | None:
        for st in self.states:
            if st.phase == phase:
                return st
        return None


def couple(basis_1: Graph, basis_2: Graph, p: float, sign: int, seed: RngSeed) -> QLBit:
    """Couple two basis graphs with independent Bernoulli(p) cross edges.

    Every (u in basis_1) x (v in basis_2) pair receives an edge with
    probability p; edge weight is sign * 1. The composite lays out basis_1
    vertices first.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"coupling probability must be in [0,1], got {p}")
    mask = seed.generator().random((basis_1.n_vertices, basis_2.n_vertices)) < p
    return QLBit(basis_1, basis_2, np.argwhere(mask), sign)


def predict_splitting(q: QLBit) -> SplittingPrediction:
    """Splitting prediction Delta = n_c / n from the coupling edge count.

    d_eff is the measured top eigenvalue of basis_1 (exact d for an intact
    d-regular basis, slightly below after edge deletions). Unequal basis
    sizes are permitted but flagged; n = |basis_1| is used.
    """
    n1, n2 = q.basis_1.n_vertices, q.basis_2.n_vertices
    if n1 != n2:
        warnings.warn(
            f"basis sizes differ ({n1} vs {n2}); splitting uses n = |basis_1| = {n1}",
            stacklevel=2,
        )
    delta = q.n_coupling / n1
    d_eff = float(np.linalg.eigvalsh(adjacency(q.basis_1))[-1])
    return SplittingPrediction(d_eff, delta, (d_eff + delta, d_eff - delta))


def _phase_of(v: np.ndarray, n1: int) -> str:
    prod = np.sign(v[:n1].mean()) * np.sign(v[n1:].mean())
    if prod > 0:
        return IN_PHASE
    if prod < 0:
        return OUT_OF_PHASE
    return INDETERMINATE


def emergent_pair(q: QLBit, s: Spectrum) -> EmergentPair:
    """The two emergent eigenpairs of the composite, phase-classified.

    ``s`` is the spectrum, with eigenvectors, of the composite's adjacency,
    including any diagonal disorder applied to it. Returns its two largest
    eigenvalues with eigenvectors; each vector is
    classified in-phase or out-of-phase from the relative sign of its block
    means. Cross-coupling sign does not move the pair (the sign=-1
    composite is similar to the sign=+1 one), it swaps which phase sits on
    top. An exactly degenerate pair (p=0) is resolved into in/out-of-phase
    combinations against the block-uniform vectors.

    Isolation: the second eigenvalue must clear the third by
    max(MIN_ISOLATION_GAP, 2*sqrt(d_mean - 1) - lambda_2); otherwise
    ``degraded_isolation`` is set on the result.
    """
    n1 = q.basis_1.n_vertices
    if s.eigenvectors is None or s.dim != q.composite.n_vertices:
        raise InvalidParameterError("need the composite's spectrum with eigenvectors")
    if s.dim < 3:
        raise InvalidParameterError("composite too small to isolate an emergent pair")
    lam = s.eigenvalues
    vecs = s.eigenvectors

    degenerate = abs(lam[0] - lam[1]) <= DEGENERACY_RTOL * max(1.0, abs(lam[0]))
    if degenerate:
        basis = vecs[:, :2]
        j0, j1 = q.block_uniform()
        proj = basis @ basis.T
        resolved = []
        for combo, phase in ((j0 + j1, IN_PHASE), (j0 - j1, OUT_OF_PHASE)):
            w = proj @ combo
            norm = np.linalg.norm(w)
            if norm < 1e-8:
                # Span does not contain the combination; keep the raw vector.
                w = vecs[:, len(resolved)]
                phase = _phase_of(w, n1)
            else:
                w = w / norm
            resolved.append((fix_sign(w), phase))
        states = (
            EmergentState(float(lam[0]), resolved[0][0], resolved[0][1]),
            EmergentState(float(lam[1]), resolved[1][0], resolved[1][1]),
        )
    else:
        states = tuple(
            EmergentState(float(lam[k]), fix_sign(vecs[:, k]), _phase_of(vecs[:, k], n1))
            for k in (0, 1)
        )

    gap = float(lam[1] - lam[2])
    d_mean = 2.0 * q.basis_1.n_edges / n1
    band = 2.0 * math.sqrt(max(d_mean - 1.0, 0.0))
    threshold = max(MIN_ISOLATION_GAP, band - float(lam[2]))
    return EmergentPair(states, gap < threshold, gap, threshold)
