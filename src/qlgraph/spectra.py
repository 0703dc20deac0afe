from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError, real_array


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending.

    When present, ``eigenvectors`` holds orthonormal columns aligned with
    ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __post_init__(self):
        vals = real_array("eigenvalues", self.eigenvalues)
        if vals.ndim != 1:
            raise InvalidParameterError("eigenvalues must be a 1-D array")
        _check_eigenvalues(vals)
        object.__setattr__(self, "eigenvalues", vals)
        if self.eigenvectors is not None:
            vecs = real_array("eigenvectors", self.eigenvectors)
            if vecs.shape != (vals.size, vals.size):
                raise InvalidParameterError("eigenvector matrix must be dim x dim")
            object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eigendecompose(a: np.ndarray, want_vectors: bool = True,
                   ) -> Spectrum | tuple[np.ndarray, np.ndarray | None]:
    """Full eigendecomposition of a square, finite, exactly symmetric matrix.

    Eigenvalues come back descending; eigenvectors (optional) are the
    matching orthonormal columns. An (S, n, n) stack gives, from one solver
    call, the (S, n) eigenvalue array and the (S, n, n) eigenvector array
    (or None), row s bitwise equal to decomposing matrix s alone; every
    matrix of the stack must be symmetric.
    """
    m = real_array("matrix", a)
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
    vecs = vecs if vecs is None else np.ascontiguousarray(vecs[..., ::-1])
    if m.ndim == 2:
        return Spectrum(vals[0], vecs if vecs is None else vecs[0])
    _check_eigenvalues(vals)
    return vals, vecs


def _check_eigenvalues(vals: np.ndarray) -> None:
    """Refuse eigenvalues, one spectrum per row, that are not finite or a row
    not sorted descending."""
    if not np.isfinite(vals).all():
        raise InvalidParameterError("eigenvalues must be finite")
    if np.any(np.diff(vals) > 0):
        raise InvalidParameterError("eigenvalues must be sorted descending")
