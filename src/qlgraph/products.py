"""Cartesian products: spectrum composition without product matrices.

Index convention, used everywhere in this module and its consumers: a
product vertex (i_1, ..., i_N) maps to the flat index

    flat = i_1 * (n_2 * ... * n_N) + i_2 * (n_3 * ... * n_N) + ... + i_N

i.e. the first factor is slowest, the last fastest (C order). This matches
numpy's ``kron`` operand order, so the product adjacency is
``kron(A_G, I) + kron(I, A_H)`` and product eigenvectors are
``kron(x_G, y_H)``. A composed spectrum is the 1-D float64 array of the
eigenvalue sums over this flat index; the factor lengths give its grid.
"""
from __future__ import annotations

import math
from typing import IO, Sequence

import numpy as np

from .errors import InvalidParameterError, require_int
from .spectra import checked_eigenvalues

# Spectrum CSV rows formatted per block: bounds the text held at once.
_BLOCK_ROWS = 4096


def compose_spectra(factor_values: Sequence[np.ndarray]) -> np.ndarray:
    """All pairwise (N-wise) sums of the factors' eigenvalue arrays, each held
    to `checked_eigenvalues`, without any product matrix: ``values[flat]`` sums
    the labels ``np.unravel_index(flat, dims)``, ``dims`` the factor lengths,
    as the left fold of outer sums raveled in C order. Its eigenvector is the
    tensor product of the labeled factor eigenvectors, never built here."""
    if len(factor_values) == 0:
        raise InvalidParameterError("need at least one factor spectrum")
    return compose_values([checked_eigenvalues(v)[None] for v in factor_values])[0]


def descending_order(values: np.ndarray) -> np.ndarray:
    """Flat indices sorted by descending value; ties keep flat order.

    Bit for bit ``np.argsort(-values, kind="stable")``, from one unstable
    argsort and one int64 sort of ``tie_run * size + flat``: ties are runs
    of values that compare equal, so 0.0 and -0.0 share a run as they do
    in the stable sort. The keys stay below size^2; a descriptor's states
    are at most MAX_BYTES/72 < 2^24, so size^2 < 2^48 < 2^63.
    """
    size = values.size
    order = np.argsort(-values)
    tied = values[order]
    run = np.zeros(size, dtype=np.int64)
    # Compared straight into `run`: a freed bool temporary of `size` bytes
    # raises glibc's mmap threshold and, at 11.85M states, peak RSS by 17 MB.
    np.not_equal(tied[1:], tied[:-1], out=run[1:])
    del tied
    np.cumsum(run, out=run)
    run *= size
    order += run
    order.sort()  # each run keeps its positions, so its keys are still run * size
    order -= run
    return order


def compose_values(factor_values: Sequence[np.ndarray]) -> np.ndarray:
    """Row s: the composed values of row s of each ``(n_samples, dim_k)``
    factor array, as the left fold of outer sums raveled in C order, so each
    value is added in the same order for any number of rows."""
    grid = factor_values[0]
    for v in factor_values[1:]:
        grid = (grid[:, :, None] + v[:, None, :]).reshape(len(grid), -1)
    return grid


def composed_range(factor_values: Sequence[np.ndarray]) -> tuple[float, float]:
    """Least and greatest value of `compose_values`, from the factor extremes
    alone: rows are sorted descending and float addition is monotone."""
    return (float(compose_values([v[:, -1:] for v in factor_values]).min()),
            float(compose_values([v[:, :1] for v in factor_values]).max()))


def emergent_component_counts(dims: Sequence[int],
                              factor_emergent_indices: Sequence[frozenset[int] | set[int]],
                              ) -> np.ndarray:
    """Per-flat-index count k, over the grid of ``dims``, of emergent factor components.

    A composed state is emergent when k == N, random when k == 0 and
    hybrid otherwise: its class is decided by which factor eigen-indices
    it sums, never by peak finding.
    """
    if len(factor_emergent_indices) != len(dims):
        raise InvalidParameterError("one emergent index set per factor required")
    counts = np.zeros(1, dtype=np.int64)
    for dim, indices in zip(dims, factor_emergent_indices):
        member = np.zeros(dim, dtype=np.int64)
        for i in indices:
            member[require_int("emergent index", i, 0, dim - 1)] = 1
        counts = np.add.outer(counts, member).ravel()
    return counts


def repr_texts(values: np.ndarray) -> np.ndarray:
    """Object array of the ``repr`` of each float64 in ``values``, calling
    ``repr`` once per run of equal neighbours (as ties form in sorted values).

    Runs are found by comparing bits, not values: 0.0 and -0.0 compare equal
    but print differently, so they stay apart.
    """
    bits = values.view(np.int64)
    starts = np.ones(bits.size, dtype=bool)
    starts[1:] = bits[1:] != bits[:-1]
    texts = np.array([repr(v) for v in values[starts].tolist()], dtype=object)
    return texts[np.cumsum(starts) - 1]


def _label_texts(dims: Sequence[int]) -> np.ndarray:
    """`",i_1,...,i_k"` for every index tuple of ``dims``, in C order."""
    texts = np.array([""], dtype=object)
    for dim in dims:
        texts = np.add.outer(texts, np.array([f",{i}" for i in range(dim)], dtype=object)).ravel()
    return texts


def write_composed_spectrum_csv(values: np.ndarray, dims: Sequence[int], fh: IO[str],
                                emergent_indices: Sequence[frozenset[int]]) -> None:
    """Rows `value,label_1,...,label_N,n_emergent_factors`, sorted descending,
    of `compose_spectra` ``values`` over factors of lengths ``dims``.

    ``n_emergent_factors`` is `emergent_component_counts` of
    ``emergent_indices``. Values are written as ``repr`` of Python floats.
    Each row is three pieces of text, each built once and picked by index:
    the value text, the labels of the first N//2 factors, and a tail of the
    other labels and the count text, indexed by the front half's emergent
    count and the back half's flat index.
    """
    if np.shape(values) != (math.prod(dims),):
        raise InvalidParameterError(f"values of shape {np.shape(values)} do not fill "
                                    f"the grid of dims {dims}")
    n, half = len(dims), len(dims) // 2
    # Each half refuses a set count other than its factor count, so together
    # they refuse a wrong total.
    front_k = emergent_component_counts(dims[:half], emergent_indices[:half])
    back_k = emergent_component_counts(dims[half:], emergent_indices[half:])
    labels = [f"label_{k + 1}" for k in range(n)]
    fh.write(",".join(["value", *labels, "n_emergent_factors"]) + "\n")
    front, back = _label_texts(dims[:half]), _label_texts(dims[half:])
    ends = np.array([f",{k}\n" for k in range(n + 1)], dtype=object)
    tail = (back + ends[np.add.outer(np.arange(half + 1), back_k)]).ravel()
    # Row flat = i * back.size + j reads tail[front_k[i] * back.size + j].
    shift = (front_k - np.arange(front.size)) * back.size
    order = descending_order(values)
    for start in range(0, values.size, _BLOCK_ROWS):
        block = order[start:start + _BLOCK_ROWS]
        i = block // back.size
        pieces = np.stack([repr_texts(values[block]), front[i], tail[block + shift[i]]], axis=1)
        fh.write("".join(pieces.ravel().tolist()))
