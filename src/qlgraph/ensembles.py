"""State class names of composed spectra, and ensemble histograms.

A composed state's class follows from its emergent component count k
(`products.emergent_component_counts`) and the factor count N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import InvalidParameterError, is_real, require_int, shown

EMERGENT = "emergent"
HYBRID = "hybrid"
RANDOM = "random"

_PAD = 0.5
# Histogram edges are float64: 10^6 bins take 8 MB.
MAX_BINS = 1_000_000


def state_kinds(n_factors: int) -> np.ndarray:
    """Class names indexed by k: k == N emergent, k == 0 random, else hybrid(k)."""
    return np.array([RANDOM] + [f"{HYBRID}({k})" for k in range(1, n_factors)] + [EMERGENT])


@dataclass(frozen=True, eq=False)
class EnsembleHistogram:
    """Aggregate eigenvalue histogram over ensemble samples."""

    bin_edges: np.ndarray
    counts: np.ndarray


def histogram_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    """``bins + 1`` uniform edges spanning [lo - 0.5, hi + 0.5]: every value
    in [lo, hi], reals whose span is within float range, lands in a bin."""
    bins = require_int("bins", bins, 1, MAX_BINS)
    try:  # as Python floats: a numpy float compared to a larger one would warn
        span = float(hi) - float(lo) if is_real(lo) and is_real(hi) else math.nan
    except OverflowError:  # an int past float range
        span = math.nan
    if not 0 <= span < math.inf:
        raise InvalidParameterError("histogram range must be finite with lo <= hi, "
                                    f"got [{shown(lo)}, {shown(hi)}]")
    return np.linspace(lo - _PAD, hi + _PAD, bins + 1)


def histogram_from_values(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of ``values`` per bin between consecutive ``edges``; the last
    bin includes its right edge. Counts of parts add up to the counts of
    the whole."""
    counts, _ = np.histogram(values, bins=edges)
    return counts


def write_histogram_csv(h: EnsembleHistogram, fh: IO[str]) -> None:
    """Rows `bin_left,bin_right,count`."""
    fh.write("bin_left,bin_right,count\n")
    for left, right, count in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts):
        fh.write(f"{left!r},{right!r},{int(count)}\n")
