"""State classification of composed spectra and ensemble histograms.

Classification is ground truth from composition: an eigenvalue's label is
decided by which factor eigen-indices it sums, never by peak finding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import InvalidParameterError
from .products import ComposedSpectrum

EMERGENT = "emergent"
HYBRID = "hybrid"
RANDOM = "random"


@dataclass(frozen=True)
class StateLabel:
    """Classification of one composed eigenvalue.

    ``k`` counts the factor components drawn from emergent indices:
    k == N -> emergent, 0 < k < N -> hybrid(k), k == 0 -> random.
    """

    kind: str
    k: int


@dataclass(frozen=True, eq=False)
class EnsembleHistogram:
    """Aggregate eigenvalue histogram over ensemble samples."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_samples: int
    parameters: dict

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or edges.shape[0] != counts.shape[0] + 1:
            raise InvalidParameterError("need len(bin_edges) == len(counts) + 1")
        if np.any(np.diff(edges) <= 0):
            raise InvalidParameterError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise InvalidParameterError("counts must be non-negative")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)


def emergent_component_counts(c: ComposedSpectrum,
                              factor_emergent_indices: Sequence[frozenset[int] | set[int]],
                              ) -> np.ndarray:
    """Per-flat-index count of factor components that are emergent indices."""
    if len(factor_emergent_indices) != c.n_factors:
        raise InvalidParameterError("one emergent index set per factor required")
    counts = np.zeros(1, dtype=np.int64)
    for dim, indices in zip(c.dims, factor_emergent_indices):
        member = np.zeros(dim, dtype=np.int64)
        for i in indices:
            if not 0 <= i < dim:
                raise InvalidParameterError(f"emergent index {i} out of range [0,{dim})")
            member[i] = 1
        counts = np.add.outer(counts, member).ravel()
    return counts


def classify_states(c: ComposedSpectrum,
                    factor_emergent_indices: Sequence[frozenset[int] | set[int]],
                    ) -> list[StateLabel]:
    """Label every composed eigenvalue, aligned with flat index order."""
    n = c.n_factors
    counts = emergent_component_counts(c, factor_emergent_indices)
    labels = []
    for k in counts:
        k = int(k)
        if k == n:
            labels.append(StateLabel(EMERGENT, k))
        elif k == 0:
            labels.append(StateLabel(RANDOM, 0))
        else:
            labels.append(StateLabel(HYBRID, k))
    return labels


def histogram_from_values(values: np.ndarray, bins: int, n_samples: int,
                          parameters: dict, pad: float = 0.5) -> EnsembleHistogram:
    """Uniform bins spanning [min - pad, max + pad]; every value lands in a bin."""
    if bins < 1:
        raise InvalidParameterError(f"bins must be positive, got {bins}")
    if values.size == 0:
        raise InvalidParameterError("no values to histogram")
    edges = np.linspace(values.min() - pad, values.max() + pad, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return EnsembleHistogram(edges, counts, n_samples, parameters)


def write_histogram_csv(h: EnsembleHistogram, fh: IO[str]) -> None:
    """Rows `bin_left,bin_right,count`."""
    fh.write("bin_left,bin_right,count\n")
    for left, right, count in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts):
        fh.write(f"{left!r},{right!r},{int(count)}\n")
