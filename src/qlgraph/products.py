"""Cartesian products: spectrum composition without product matrices.

Index convention, used everywhere in this module and its consumers: a
product vertex (i_1, ..., i_N) maps to the flat index

    flat = i_1 * (n_2 * ... * n_N) + i_2 * (n_3 * ... * n_N) + ... + i_N

i.e. the first factor is slowest, the last fastest (C order). This matches
numpy's ``kron`` operand order, so the product adjacency is
``kron(A_G, I) + kron(I, A_H)`` and product eigenvectors are
``kron(x_G, y_H)``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import InvalidParameterError, require_int
from .spectra import checked_eigenvalues

# Spectrum CSV rows formatted per block: bounds the text held at once.
_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class ComposedSpectrum:
    """All eigenvalue sums of the factor spectra, labeled by factor indices.

    ``values[flat]`` is the eigenvalue whose per-factor labels are
    ``np.unravel_index(flat, dims)``; it equals the left-fold sum of the
    labeled factor eigenvalues exactly, by construction. Its eigenvector is
    the tensor product of the labeled factor eigenvectors; projections use
    the factors directly and never build it.
    """

    dims: tuple[int, ...]
    values: np.ndarray

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def descending_order(self) -> np.ndarray:
        """Flat indices sorted by descending value; ties keep flat order."""
        return np.argsort(-self.values, kind="stable")


def compose_spectra(factor_values: Sequence[np.ndarray]) -> ComposedSpectrum:
    """All pairwise (N-wise) sums of the factors' eigenvalue arrays, each held
    to `checked_eigenvalues`, without any product matrix.

    Associative by construction: the value grid is the left fold of outer
    sums, raveled in C order to match the flat-index convention.
    """
    if len(factor_values) == 0:
        raise InvalidParameterError("need at least one factor spectrum")
    values = [checked_eigenvalues(v)[None] for v in factor_values]
    return ComposedSpectrum(tuple(v.shape[1] for v in values), compose_values(values)[0])


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


def emergent_component_counts(c: ComposedSpectrum,
                              factor_emergent_indices: Sequence[frozenset[int] | set[int]],
                              ) -> np.ndarray:
    """Per-flat-index count k of factor components that are emergent indices.

    A composed state is emergent when k == N, random when k == 0 and
    hybrid(k) otherwise: its class is decided by which factor eigen-indices
    it sums, never by peak finding.
    """
    if len(factor_emergent_indices) != c.n_factors:
        raise InvalidParameterError("one emergent index set per factor required")
    counts = np.zeros(1, dtype=np.int64)
    for dim, indices in zip(c.dims, factor_emergent_indices):
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
    return np.array(["".join(f",{i}" for i in t) for t in itertools.product(*map(range, dims))],
                    dtype=object)


def write_composed_spectrum_csv(c: ComposedSpectrum, fh: IO[str],
                                emergent_indices: Sequence[frozenset[int]]) -> None:
    """Rows `value,label_1,...,label_N,n_emergent_factors`, sorted descending.

    ``n_emergent_factors`` is `emergent_component_counts` of
    ``emergent_indices``. Values are written as ``repr`` of Python floats.
    Each piece of row text is built once and picked by index: labels from two
    tables, for the first N//2 factors and for the rest, by splitting the
    flat index in two, and the count text from a table indexed by k.
    """
    counts = emergent_component_counts(c, emergent_indices)
    labels = [f"label_{k + 1}" for k in range(c.n_factors)]
    fh.write(",".join(["value", *labels, "n_emergent_factors"]) + "\n")
    half = c.n_factors // 2
    front, back = _label_texts(c.dims[:half]), _label_texts(c.dims[half:])
    ends = np.array([f",{k}\n" for k in range(c.n_factors + 1)], dtype=object)
    order = c.descending_order()
    for start in range(0, c.size, _BLOCK_ROWS):
        block = order[start:start + _BLOCK_ROWS]
        i, j = np.divmod(block, back.size)
        pieces = np.stack([repr_texts(c.values[block]), front[i], back[j], ends[counts[block]]],
                          axis=1)
        fh.write("".join(pieces.ravel().tolist()))
