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

from .errors import InvalidParameterError
from .graphs import adjacency
from .qlbits import IN_PHASE, OUT_OF_PHASE, QLBit, emergent_pair
from .spectra import eigendecompose


@dataclass(frozen=True)
class ProjectionReport:
    """Alpha coefficients over all N-bit strings plus the leftover mass.

    residual_norm is the eigenvector weight orthogonal to every J-product
    vector; alphas and residual satisfy sum(alpha^2) + residual^2 = |v|^2.
    """

    alphas: dict[str, float]
    residual_norm: float
    eigenvalue: float | None = None
    labels: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"alphas": dict(sorted(self.alphas.items())), "residual": self.residual_norm}
        if self.eigenvalue is not None:
            out["eigenvalue"] = self.eigenvalue
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


def _bit_strings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(2**n)]


def project_alphas(qlbits: Sequence[QLBit], factor_vectors: Sequence[np.ndarray],
                   eigenvalue: float | None = None,
                   labels: Sequence[int] | None = None) -> ProjectionReport:
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
        w = np.asarray(w, dtype=np.float64)
        d = q.composite.n_vertices
        if w.shape != (d,):
            raise InvalidParameterError(f"factor vector length {w.shape} != composite dim {d}")
        j0, j1 = q.block_uniform()
        per_factor.append(np.array([w @ j0, w @ j1]))
        sq_norm *= float(w @ w)
    tensor = per_factor[0]
    for comp in per_factor[1:]:
        tensor = np.multiply.outer(tensor, comp)

    flat = tensor.reshape(-1)
    alphas = {b: float(a) for b, a in zip(_bit_strings(len(qlbits)), flat)}
    residual_sq = max(0.0, sq_norm - float(flat @ flat))
    return ProjectionReport(alphas, math.sqrt(residual_sq), eigenvalue,
                            tuple(labels) if labels is not None else None)


@dataclass(frozen=True)
class BellCombination:
    """Projection of one emergent-pair product choice onto the qubit basis."""

    choices: tuple[int, ...]
    eigenvalue: float
    report: ProjectionReport
    sign_pattern: tuple[int, ...]
    expected_pattern: tuple[int, ...]
    matches_expected: bool
    max_magnitude_deviation: float


@dataclass(frozen=True)
class BellStateReport:
    combinations: tuple[BellCombination, ...]
    degraded_isolation: tuple[bool, bool]
    all_match: bool


def bell_state_check(qlbit_a: QLBit, qlbit_b: QLBit) -> BellStateReport:
    """Project all four emergent-pair product combinations of two QL bits.

    For each choice (s_a, s_b) with s = +1 (in-phase) or -1 (out-of-phase),
    the alpha sign pattern over (00, 01, 10, 11) is compared, up to a global
    sign, against the tensor product of per-bit patterns (+,+) and (+,-).
    Magnitudes are reported against the uniform |alpha| = 1/2.
    """
    qlbits = (qlbit_a, qlbit_b)
    pairs = tuple(emergent_pair(q, eigendecompose(adjacency(q.composite))) for q in qlbits)
    combos = []
    all_match = True
    for sa in (1, -1):
        for sb in (1, -1):
            vectors = []
            value = 0.0
            for choice, pair in zip((sa, sb), pairs):
                phase = IN_PHASE if choice == 1 else OUT_OF_PHASE
                state = pair.by_phase(phase)
                if state is None:
                    # Phase classification failed; fall back positionally.
                    state = pair.states[0 if choice == 1 else 1]
                vectors.append(state.eigenvector)
                value += state.eigenvalue
            report = project_alphas(qlbits, vectors, eigenvalue=value)
            keys = _bit_strings(2)
            pattern = tuple(int(np.sign(report.alphas[k])) for k in keys)
            expected = tuple(np.kron([1, sa], [1, sb]).tolist())
            neg = tuple(-x for x in expected)
            matches = pattern in (expected, neg) and 0 not in pattern
            deviation = max(abs(abs(report.alphas[k]) - 0.5) for k in keys)
            combos.append(BellCombination((sa, sb), value, report, pattern, expected,
                                          matches, deviation))
            all_match = all_match and matches
    degraded = (pairs[0].degraded_isolation, pairs[1].degraded_isolation)
    return BellStateReport(tuple(combos), degraded, all_match)
