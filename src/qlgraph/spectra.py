"""Dense symmetric eigendecomposition, and the one rule eigenvalues keep.

A spectrum is the pair ``(values, vectors)`` that `eigendecompose` returns:
eigenvalues sorted descending and the matching orthonormal eigenvector
columns, or None. One (n, n) matrix gives (n,) and (n, n) arrays; an
(S, n, n) stack gives (S, n) and (S, n, n), row s bitwise that of matrix s
alone. Everything after the solve takes plain eigenvalue arrays, each held
to `checked_eigenvalues`.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NumericalFailureError, real_array


def eigendecompose(a: np.ndarray, want_vectors: bool = True,
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """The spectrum of a square, finite, exactly symmetric matrix, or of an
    (S, n, n) stack of them, every one symmetric, from one solver call."""
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
        vals, vecs = vals[0], vecs if vecs is None else vecs[0]
    return checked_eigenvalues(vals, m.ndim - 1), vecs


def checked_eigenvalues(values, ndim: int = 1) -> np.ndarray:
    """``values`` by `real_array`, one spectrum per row; InvalidParameterError
    unless it has ``ndim`` dimensions, is finite and each row is descending."""
    vals = real_array("eigenvalues", values)
    if vals.ndim != ndim:
        raise InvalidParameterError(f"eigenvalues must be a {ndim}-D array")
    if not np.isfinite(vals).all():
        raise InvalidParameterError("eigenvalues must be finite")
    if np.any(np.diff(vals) > 0):
        raise InvalidParameterError("eigenvalues must be sorted descending")
    return vals
