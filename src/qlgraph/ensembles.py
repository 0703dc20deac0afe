"""Ensemble histograms: the pair ``(counts, edges)``, in `np.histogram`'s order, and its CSV."""
from __future__ import annotations

import math
from typing import IO

import numpy as np

from .errors import InvalidParameterError, real_array, real_float, require_int, shown

_PAD = 0.5
# Histogram edges are float64: 10^6 bins take 8 MB.
MAX_BINS = 1_000_000


def histogram_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    """``bins + 1`` uniform edges spanning [lo - 0.5, hi + 0.5]: every value
    in [lo, hi], reals whose span is within float range, lands in a bin."""
    bins = require_int("bins", bins, 1, MAX_BINS)
    span = real_float(hi) - real_float(lo)
    if not 0 <= span < math.inf:
        raise InvalidParameterError("histogram range must be finite with lo <= hi, "
                                    f"got [{shown(lo)}, {shown(hi)}]")
    return np.linspace(lo - _PAD, hi + _PAD, bins + 1)


def histogram_from_values(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of ``values`` per bin between consecutive ``edges``, both cast by
    `real_array`, the edges 1-D, two or more, finite and strictly increasing;
    the last bin includes its right edge. Counts of parts add up to the whole's.
    Refuses values that land in no bin: NaN, infinite or outside the edges."""
    edges = real_array("edges", edges)
    if not (edges.ndim == 1 and edges.size > 1 and np.isfinite(edges).all()
            and (np.diff(edges) > 0).all()):
        raise InvalidParameterError("edges must be 1-D, at least two, finite and strictly "
                                    f"increasing, got shape {edges.shape}")
    values = real_array("values", values)
    counts, _ = np.histogram(values, bins=edges)
    if counts.sum() != values.size:
        raise InvalidParameterError(f"values must lie within [{float(edges[0])!r}, "
                                    f"{float(edges[-1])!r}]: {values.size - counts.sum()} of "
                                    f"{values.size} are NaN, infinite or outside")
    return counts


def write_histogram_csv(counts: np.ndarray, edges: np.ndarray, fh: IO[str]) -> None:
    """Rows `bin_left,bin_right,count`, one per bin; refuses counts of any other shape."""
    if np.shape(counts) != (len(edges) - 1,):
        raise InvalidParameterError(f"{len(edges)} edges bound {len(edges) - 1} bins, "
                                    f"got counts of shape {np.shape(counts)}")
    fh.write("bin_left,bin_right,count\n")
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        fh.write(f"{left!r},{right!r},{int(count)}\n")
