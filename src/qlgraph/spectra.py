"""Dense symmetric eigendecomposition and spectrum-level checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError
from .graphs import AdjacencyMatrix

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    When present, ``eigenvectors`` holds orthonormal columns aligned with
    ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        if vals.ndim != 1:
            raise InvalidParameterError("eigenvalues must be a 1-D array")
        if np.any(np.diff(vals) > 0):
            raise InvalidParameterError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", vals)
        if self.eigenvectors is not None:
            vecs = np.asarray(self.eigenvectors, dtype=np.float64)
            if vecs.shape != (vals.size, vals.size):
                raise InvalidParameterError("eigenvector matrix must be dim x dim")
            object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class AlonBoppanaReport:
    """Finite-size check of lambda_1 against the 2*sqrt(d-1) bound."""

    bound: float
    lambda_1: float
    satisfied: bool
    slack: float


def eigendecompose(a: AdjacencyMatrix, want_vectors: bool = True) -> Spectrum:
    """Full eigendecomposition of a symmetric adjacency matrix.

    Eigenvalues come back descending; eigenvectors (optional) are the
    matching orthonormal columns.
    """
    m = a.entries
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise InvalidParameterError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(m)
            return Spectrum(vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1]))
        vals = np.linalg.eigvalsh(m)
        return Spectrum(vals[::-1].copy(), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigendecomposition failed for dim={a.dim}, max|entry|={np.max(np.abs(m)):.3g}: {exc}"
        ) from exc


def spectral_gap(s: Spectrum) -> float:
    """Gap between the two largest eigenvalues, lambda_0 - lambda_1."""
    if s.dim < 2:
        raise InvalidParameterError("spectral gap needs dim >= 2")
    return float(s.eigenvalues[0] - s.eigenvalues[1])


def alon_boppana_check(s: Spectrum, d: int, slack: float = 0.5) -> AlonBoppanaReport:
    """Report whether lambda_1 respects 2*sqrt(d-1) up to a finite-size slack.

    Report-only: finite graphs occasionally exceed the asymptotic bound, so
    callers log violations rather than fail on them.
    """
    if d < 1:
        raise InvalidParameterError(f"degree must be positive, got {d}")
    if s.dim < 2:
        raise InvalidParameterError("Alon-Boppana check needs dim >= 2")
    bound = 2.0 * math.sqrt(d - 1)
    lam1 = float(s.eigenvalues[1])
    return AlonBoppanaReport(bound, lam1, lam1 <= bound + slack, slack)


def max_residual(a: AdjacencyMatrix, s: Spectrum) -> float:
    """max over pairs of ||A v - lambda v||_inf / max(1, |lambda|)."""
    if s.eigenvectors is None:
        raise InvalidParameterError("spectrum carries no eigenvectors")
    r = a.entries @ s.eigenvectors - s.eigenvectors * s.eigenvalues[np.newaxis, :]
    scale = np.maximum(1.0, np.abs(s.eigenvalues))
    return float(np.max(np.max(np.abs(r), axis=0) / scale))


def orthonormality_defect(s: Spectrum) -> float:
    """max entrywise deviation of V^T V from the identity."""
    if s.eigenvectors is None:
        raise InvalidParameterError("spectrum carries no eigenvectors")
    gram = s.eigenvectors.T @ s.eigenvectors
    return float(np.max(np.abs(gram - np.eye(s.dim))))


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip the vector so its largest-magnitude component is positive.

    Eigensolvers return arbitrary signs; sign patterns downstream need a
    fixed convention. Ties break on the first maximal index.
    """
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v
