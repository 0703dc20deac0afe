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

from .errors import InvalidParameterError, is_real, require_int, shown
from .graphs import Graph, _write_rows, adjacency, canonical_edges
from .rng import RngSeed
from .spectra import Spectrum, eigendecompose

# Least gap between the second and third eigenvalues of an isolated pair.
MIN_ISOLATION_GAP = 0.5


def _checked_sign(sign) -> int:
    """A cross-edge sign as an int, +1 or -1."""
    sign = require_int("sign", sign)
    if sign not in (1, -1):
        raise InvalidParameterError(f"sign must be +1 or -1, got {shown(sign)}")
    return sign


def _checked_p(p) -> float:
    """A cross-edge probability, a real in [0, 1]."""
    if not is_real(p) or not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"p must be a real in [0, 1], got {shown(p)}")
    return p


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
        object.__setattr__(self, "sign", _checked_sign(self.sign))
        object.__setattr__(self, "coupling_edges", canonical_edges(
            self.coupling_edges, self.basis_1.n_vertices, self.basis_2.n_vertices))

    @classmethod
    def _of_canonical(cls, basis_1: Graph, basis_2: Graph, coupling_edges: np.ndarray,
                      sign: int) -> "QLBit":
        """The QL bit of cross-edge rows canonical by construction, made
        read-only in place: checks the sign but skips the edge checks."""
        sign = _checked_sign(sign)
        coupling_edges.flags.writeable = False
        q = object.__new__(cls)
        vars(q).update(basis_1=basis_1, basis_2=basis_2, coupling_edges=coupling_edges, sign=sign)
        return q

    @property
    def n_vertices(self) -> int:
        return self.basis_1.n_vertices + self.basis_2.n_vertices

    @property
    def n_coupling(self) -> int:
        return len(self.coupling_edges)

    def adjacency(self) -> np.ndarray:
        """Dense symmetric float64 matrix [[A_1, sign*C], [sign*C^T, A_2]]:
        each entry and its mirror written into one zero matrix, so every
        other entry stays +0.0, also at sign -1."""
        m = np.zeros((self.n_vertices, self.n_vertices))
        _write_qlbits(m[None], self.basis_1.n_vertices, self.basis_1.edges[None],
                      self.basis_2.edges[None], 0, *self.coupling_edges.T, self.sign)
        return m

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


def couple(basis_1: Graph, basis_2: Graph, p: float, sign: int, seed: RngSeed) -> QLBit:
    """The QL bit of two basis graphs joined by cross edges of weight sign:
    each (u, v), u of basis_1 and v of basis_2, independently with
    probability p. The rows come out in (u, v) order."""
    _, u, v = _cross_edges(basis_1.n_vertices, basis_2.n_vertices, _checked_p(p), (seed,))
    return QLBit._of_canonical(basis_1, basis_2, np.stack((u, v), axis=1), sign)


def _cross_edges(n1: int, n2: int, p: float, seeds: tuple[RngSeed, ...]) -> tuple[np.ndarray, ...]:
    """Sorted (s, u, v) of B bits' cross edges u of n1 to v of n2, each drawn with p."""
    draws = np.empty((len(seeds), n1, n2))
    for out, seed in zip(draws, seeds):
        seed.generator().random(out=out)
    return np.nonzero(draws < p)


def _write_qlbits(mats: np.ndarray, n1: int, rows_1, rows_2, s, u, v, sign: int) -> None:
    """Writes B bits' base rows (n1 vertices first) and `_cross_edges` into B zero matrices."""
    _write_rows(mats, rows_1)
    _write_rows(mats, rows_2, n1)
    mats[s, u, v + n1] = mats[s, v + n1, u] = sign


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
