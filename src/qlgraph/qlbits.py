"""QL bits: two basis graphs coupled by random cross edges.

A QL bit's matrix stacks basis_1's vertices first, then basis_2's. With
positive unit coupling the top two eigenvalues are the in- and out-of-phase
combinations of the basis graphs' principal states, split by roughly
2*Delta with Delta = n_c / n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, require_int
from .graphs import Graph, adjacency, canonical_edges
from .rng import RngSeed
from .spectra import Spectrum, eigendecompose

# Least gap between the second and third eigenvalues of an isolated pair.
MIN_ISOLATION_GAP = 0.5


@dataclass(frozen=True, eq=False)
class QLBit:
    """Two basis graphs joined by cross edges of weight ``sign``.

    ``coupling_edges`` is an (n_c, 2) int64 array of distinct (u, v) cross
    edges, u a vertex of basis_1 and v of basis_2, rows sorted. The
    adjacency is the block matrix [[A_1, sign*C], [sign*C^T, A_2]].
    """

    basis_1: Graph
    basis_2: Graph
    coupling_edges: np.ndarray
    sign: int

    def __post_init__(self):
        sign = require_int("sign", self.sign)
        if sign not in (1, -1):
            raise InvalidParameterError(f"sign must be +1 or -1, got {sign}")
        object.__setattr__(self, "coupling_edges", canonical_edges(
            self.coupling_edges, self.basis_1.n_vertices, self.basis_2.n_vertices))
        object.__setattr__(self, "sign", sign)

    @property
    def n_vertices(self) -> int:
        return self.basis_1.n_vertices + self.basis_2.n_vertices

    @property
    def n_coupling(self) -> int:
        return len(self.coupling_edges)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric float64 matrix [[A_1, sign*C], [sign*C^T, A_2]]."""
        return qlbit_matrix(self.basis_1.n_vertices, self.basis_2.n_vertices, self.basis_1.edges,
                            self.basis_2.edges, self.coupling_edges, self.sign)

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


@dataclass(frozen=True)
class EmergentPair:
    """The QL bit's two emergent eigenvalues plus an isolation diagnostic.

    ``degraded_isolation`` is a warning, not an error: it fires when the
    second eigenvalue is not separated from the third by the detection
    threshold.
    """

    eigenvalues: tuple[float, float]
    degraded_isolation: bool
    isolation_gap: float
    isolation_threshold: float


def cross_edges(n1: int, n2: int, p: float, seed: RngSeed) -> np.ndarray:
    """(n_c, 2) int64 cross edges (u, v), u of n1 vertices and v of n2, in
    (u, v) order: each pair independently with probability p."""
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"coupling probability must be a real in [0,1], got {p}")
    return np.argwhere(seed.generator().random((n1, n2)) < p)


def couple(basis_1: Graph, basis_2: Graph, p: float, sign: int, seed: RngSeed) -> QLBit:
    """The QL bit of two basis graphs and their `cross_edges`, of weight sign."""
    return QLBit(basis_1, basis_2, cross_edges(basis_1.n_vertices, basis_2.n_vertices, p, seed),
                 sign)


def qlbit_matrix(n1: int, n2: int, edges_1: np.ndarray, edges_2: np.ndarray,
                 cross: np.ndarray, sign: int) -> np.ndarray:
    """[[A_1, sign*C], [sign*C^T, A_2]] from the edge rows of a basis on n1
    vertices, of one on n2 and of the cross edges, taken as they are: each
    entry and its mirror written into one zero matrix, so every other entry
    stays +0.0, also at sign -1."""
    m = np.zeros((n1 + n2,) * 2)
    for rows, value in ((edges_1, 1.0), (edges_2 + n1, 1.0), (cross + (0, n1), sign)):
        u, v = rows.T
        m[u, v] = m[v, u] = value
    return m


def predict_splitting(q: QLBit) -> SplittingPrediction:
    """Splitting prediction Delta = n_c / n from the coupling edge count.

    d_eff is the measured top eigenvalue of basis_1 (exact d for an intact
    d-regular basis, slightly below after edge deletions), and n = |basis_1|.
    """
    n1 = q.basis_1.n_vertices
    delta = q.n_coupling / n1
    d_eff = float(eigendecompose(adjacency(q.basis_1), want_vectors=False).eigenvalues[0])
    return SplittingPrediction(d_eff, delta, (d_eff + delta, d_eff - delta))


def emergent_pair(q: QLBit, s: Spectrum) -> EmergentPair:
    """The two emergent eigenvalues of the QL bit and their isolation.

    ``s`` is the spectrum, with or without eigenvectors, of ``q.adjacency()``,
    including any diagonal disorder applied to it. Cross-coupling sign does
    not move the pair: the sign=-1 matrix is similar to the sign=+1 one.

    Isolation: the second eigenvalue must clear the third by
    max(MIN_ISOLATION_GAP, 2*sqrt(d_mean - 1) - lambda_2); otherwise
    ``degraded_isolation`` is set on the result.
    """
    if s.dim != q.n_vertices:
        raise InvalidParameterError("need the QL bit's spectrum")
    if s.dim < 3:
        raise InvalidParameterError("QL bit too small to isolate an emergent pair")
    lam = s.eigenvalues
    gap = float(lam[1] - lam[2])
    d_mean = 2.0 * q.basis_1.n_edges / q.basis_1.n_vertices
    band = 2.0 * math.sqrt(max(d_mean - 1.0, 0.0))
    threshold = max(MIN_ISOLATION_GAP, band - float(lam[2]))
    return EmergentPair((float(lam[0]), float(lam[1])), gap < threshold, gap, threshold)
