from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError


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
        _check_eigenvalues(vals)
        object.__setattr__(self, "eigenvalues", vals)
        if self.eigenvectors is not None:
            vecs = np.asarray(self.eigenvectors, dtype=np.float64)
            if vecs.shape != (vals.size, vals.size):
                raise InvalidParameterError("eigenvector matrix must be dim x dim")
            object.__setattr__(self, "eigenvectors", vecs)

    @classmethod
    def _of_checked(cls, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None) -> "Spectrum":
        """The spectrum of float64 eigenvalues that passed `_check_eigenvalues`
        and their dim x dim float64 eigenvectors or None: skips __post_init__."""
        s = object.__new__(cls)
        vars(s).update(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
        return s

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eigendecompose(a: np.ndarray, want_vectors: bool = True) -> Spectrum | list[Spectrum]:
    """Full eigendecomposition of a square, finite, exactly symmetric matrix.

    Eigenvalues come back descending; eigenvectors (optional) are the
    matching orthonormal columns. An (S, n, n) stack gives a list of S
    spectra from one solver call, each bitwise equal to decomposing its
    matrix alone; every matrix of the stack must be symmetric. The spectra
    of a stack are row views into one (S, n) eigenvalue array and one
    (S, n, n) eigenvector array, so keeping any of them keeps both whole.
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
    vals = np.ascontiguousarray(vals[:, ::-1])
    _check_eigenvalues(vals)
    vecs = [None] * len(vals) if vecs is None else np.ascontiguousarray(vecs[..., ::-1])
    spectra = [Spectrum._of_checked(v, w) for v, w in zip(vals, vecs)]
    return spectra[0] if m.ndim == 2 else spectra


def _check_eigenvalues(vals: np.ndarray) -> None:
    """Refuse eigenvalues, one spectrum per row, that are not finite or a row
    not sorted descending."""
    if not np.isfinite(vals).all():
        raise InvalidParameterError("eigenvalues must be finite")
    if np.any(np.diff(vals) > 0):
        raise InvalidParameterError("eigenvalues must be sorted descending")
