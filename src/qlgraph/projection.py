"""Projection of product eigenvectors onto the 2^N qubit tensor basis.

Each QL bit contributes two block-uniform unit vectors J_0 (over basis_1's
vertices) and J_1 (over basis_2's); their tensor products over the factors
form an orthonormal set indexed by N-bit strings. The alpha coefficient of
a product eigenvector on bit string b is the inner product with that
J-product vector, which factors into per-bit inner products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, real_array
from .qlbits import QLBit


@dataclass(frozen=True)
class ProjectionReport:
    """Alpha coefficients over all N-bit strings plus the leftover mass.

    residual_norm is the eigenvector weight orthogonal to every J-product
    vector; alphas and residual satisfy sum(alpha^2) + residual^2 = |v|^2.
    """

    alphas: dict[str, float]
    residual_norm: float


def project_alphas(qlbits: Sequence[QLBit], factor_vectors: Sequence[np.ndarray]) -> ProjectionReport:
    """Alpha coefficients of a product vector on the qubit basis.

    The vector is the tensor product of ``factor_vectors``, one per QL bit
    (first factor slowest), and is never formed: its alphas are products of
    the per-bit inner products with J_0/J_1, and its squared norm is the
    product of the per-bit squared norms.
    """
    if len(qlbits) == 0:
        raise InvalidParameterError("need at least one QL bit")
    if len(factor_vectors) != len(qlbits):
        raise InvalidParameterError("one factor vector per QL bit required")
    per_factor = []
    sq_norm = 1.0
    for w, q in zip(factor_vectors, qlbits):
        if not isinstance(q, QLBit):
            raise InvalidParameterError(f"factors must be QL bits, got a {type(q).__name__}")
        w = real_array("factor vector", w)
        if w.shape != (q.n_vertices,):
            raise InvalidParameterError(
                f"factor vector length {w.shape} != QL bit dim {q.n_vertices}")
        j0, j1 = q.block_uniform()
        per_factor.append(np.array([w @ j0, w @ j1]))
        sq_norm *= float(w @ w)
    tensor = per_factor[0]
    for comp in per_factor[1:]:
        tensor = np.multiply.outer(tensor, comp)

    flat = tensor.reshape(-1)
    alphas = {format(i, f"0{len(qlbits)}b"): float(a) for i, a in enumerate(flat)}
    residual_sq = max(0.0, sq_norm - float(flat @ flat))
    return ProjectionReport(alphas, math.sqrt(residual_sq))
