"""Dense symmetric eigendecomposition and spectrum-level checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError

# Finite graphs may exceed the asymptotic Alon-Boppana bound by this much.
AB_SLACK = 0.5


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
        if not np.isfinite(vals).all():
            raise InvalidParameterError("eigenvalues must be finite")
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


def eigendecompose(a: np.ndarray, want_vectors: bool = True) -> Spectrum | list[Spectrum]:
    """Full eigendecomposition of a square, finite, exactly symmetric matrix.

    Eigenvalues come back descending; eigenvectors (optional) are the
    matching orthonormal columns. An (S, n, n) stack gives a list of S
    spectra from one solver call, each bitwise equal to decomposing its
    matrix alone; every matrix of the stack must be symmetric.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    if not np.array_equal(m, m.swapaxes(-1, -2)):
        raise InvalidParameterError("matrix must be exactly symmetric")
    stack = m if m.ndim == 3 else m[np.newaxis]
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(stack)
        else:
            vals, vecs = np.linalg.eigvalsh(stack), None
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed for dim={m.shape[-1]}, "
                                    f"max|entry|={np.max(np.abs(m)):.3g}: {exc}") from exc
    spectra = [Spectrum(vals[s, ::-1].copy(),
                        None if vecs is None else np.ascontiguousarray(vecs[s, :, ::-1]))
               for s in range(len(stack))]
    return spectra[0] if m.ndim == 2 else spectra


def alon_boppana_check(s: Spectrum, d: int) -> AlonBoppanaReport:
    """Report whether lambda_1 respects 2*sqrt(d-1) up to the finite-size AB_SLACK.

    Report-only: finite graphs occasionally exceed the asymptotic bound, so
    callers log violations rather than fail on them.
    """
    if d < 1:
        raise InvalidParameterError(f"degree must be positive, got {d}")
    if s.dim < 2:
        raise InvalidParameterError("Alon-Boppana check needs dim >= 2")
    bound = 2.0 * math.sqrt(d - 1)
    lam1 = float(s.eigenvalues[1])
    return AlonBoppanaReport(bound, lam1, lam1 <= bound + AB_SLACK)


def max_residual(a: np.ndarray, s: Spectrum) -> float:
    """max over pairs of ||A v - lambda v||_inf / max(1, |lambda|)."""
    if s.eigenvectors is None:
        raise InvalidParameterError("spectrum carries no eigenvectors")
    r = a @ s.eigenvectors - s.eigenvectors * s.eigenvalues[np.newaxis, :]
    scale = np.maximum(1.0, np.abs(s.eigenvalues))
    return float(np.max(np.max(np.abs(r), axis=0) / scale))


def orthonormality_defect(s: Spectrum) -> float:
    """max entrywise deviation of V^T V from the identity."""
    if s.eigenvectors is None:
        raise InvalidParameterError("spectrum carries no eigenvectors")
    gram = s.eigenvectors.T @ s.eigenvectors
    return float(np.max(np.abs(gram - np.eye(s.dim))))
