"""Explicit constructions that the package never builds, kept as test oracles.

The pipeline composes product spectra without forming product graphs or
matrices, and projects product eigenvectors without forming them; these
helpers form them anyway so tests can compare against the dense result.
The composed spectrum CSV is also rebuilt here one row at a time, and the
ensemble histogram from every sample's values held at once. Graph
validation and dense d-regular generation are rebuilt on Python sets and a
two-column lexsort, the way the package once did them.
"""
from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import qlgraph as ql
from qlgraph.errors import InvalidParameterError


def reference_graph_arrays(n: int, edges, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Graph's canonical (edges, weights) by row-wise sort and a two-column lexsort.

    Refuses as Graph does, checking in the same order and naming the first
    offending edge in (u, v) order.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.ones(len(e)) if weights is None else np.asarray(weights, dtype=np.float64)
    e = np.sort(e, axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))
    e, w = e[order], w[order]
    u, v = e.T
    repeat = np.concatenate([[False], (e[1:] == e[:-1]).all(axis=1)])
    for bad, problem in ((u == v, "is a self-loop"),
                         ((u < 0) | (v >= n), f"is out of range for n={n}"),
                         (repeat, "is a duplicate"),
                         (~np.isfinite(w), "has a non-finite weight")):
        if bad.any():
            i = bad.argmax()
            raise InvalidParameterError(f"edge ({u[i]},{v[i]}) {problem}")
    return e, w


def reference_d_regular_random(n: int, d: int, seed: ql.RngSeed) -> ql.Graph:
    """d_regular_random with the dense complement taken as a set difference of tuples."""
    from qlgraph.graphs import _pairing_attempt

    def edges(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]]:
        if 2 * d > n - 1:
            return {(i, j) for i in range(n) for j in range(i + 1, n)} - edges(n, n - 1 - d, rng)
        while (found := _pairing_attempt(n, d, rng)) is None:
            pass
        return found

    return ql.Graph(n, np.array(list(edges(n, d, seed.generator())), dtype=np.int64).reshape(-1, 2))


def complete_graph(n: int) -> ql.Graph:
    """The complete graph K_n."""
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    return ql.Graph(n, np.column_stack(np.triu_indices(n, 1)))


def graph_from_adjacency(a: np.ndarray) -> ql.Graph:
    """Recover the graph whose edges are the nonzero off-diagonal entries."""
    u, v = np.nonzero(np.triu(a, 1))
    return ql.Graph(len(a), np.column_stack([u, v]), a[u, v])


@dataclass(frozen=True, eq=False)
class ProductGraph:
    """Explicitly constructed Cartesian product with its factor list."""

    factors: tuple[ql.Graph, ...]
    composite: ql.Graph

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.n_vertices for f in self.factors)

    def flat_index(self, indices: Sequence[int]) -> int:
        if len(indices) != len(self.factors):
            raise InvalidParameterError("index tuple length must equal factor count")
        for i, n in zip(indices, self.dims):
            if not 0 <= i < n:
                raise InvalidParameterError(f"factor index {i} out of range [0,{n})")
        return int(np.ravel_multi_index(tuple(indices), self.dims))

    def factor_indices(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.composite.n_vertices:
            raise InvalidParameterError(f"flat index {flat} out of range")
        return tuple(int(i) for i in np.unravel_index(flat, self.dims))


def cartesian_product(g: ql.Graph, h: ql.Graph) -> ProductGraph:
    """Explicit Cartesian product: an edge wherever one factor steps and the
    other stands still. Weights are inherited from the contributing edge."""
    dim = g.n_vertices * h.n_vertices
    nh = h.n_vertices
    # (u, v) in g with h standing at x, then (x, y) in h with g standing at u.
    g_steps = g.edges[:, None, :] * nh + np.arange(nh)[None, :, None]
    h_steps = np.arange(g.n_vertices)[:, None, None] * nh + h.edges[None, :, :]
    edges = np.concatenate([g_steps.reshape(-1, 2), h_steps.reshape(-1, 2)])
    weights = np.concatenate([np.repeat(g.weights, nh), np.tile(h.weights, g.n_vertices)])
    return ProductGraph((g, h), ql.Graph(dim, edges, weights))


def product_graph(factors: Sequence[ql.Graph]) -> ProductGraph:
    """Left fold of `cartesian_product` over two or more factors.

    Under the flat-index convention the fold is exactly associative, so the
    result records the flattened factor list.
    """
    if len(factors) < 1:
        raise InvalidParameterError("need at least one factor")
    if len(factors) == 1:
        return ProductGraph((factors[0],), factors[0])
    acc = cartesian_product(factors[0], factors[1])
    for f in factors[2:]:
        step = cartesian_product(acc.composite, f)
        acc = ProductGraph(acc.factors + (f,), step.composite)
    return acc


def kronecker_sum_adjacency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(A, I) + kron(I, B): the product adjacency under the flat-index
    convention, built without the product graph; diagonals add up too."""
    return np.kron(a, np.eye(len(b))) + np.kron(np.eye(len(a)), b)


def product_eigenvector(spectra: Sequence[ql.Spectrum], labels: Sequence[int]) -> np.ndarray:
    """Tensor product of the labeled factor eigenvectors (first factor slowest)."""
    return functools.reduce(np.kron, [s.eigenvectors[:, i] for s, i in zip(spectra, labels)])


def dense_project_alphas(v: np.ndarray, qlbits: Sequence[ql.QLBit]) -> ql.ProjectionReport:
    """Alphas of any product-space vector, product or not: contract each
    factor axis of ``v`` with that bit's [J_0, J_1]."""
    v = np.asarray(v, dtype=np.float64)
    tensor = v.reshape([q.composite.n_vertices for q in qlbits])
    for q in qlbits:
        tensor = np.tensordot(tensor, np.stack(q.block_uniform(), axis=1), axes=([0], [0]))
    flat = tensor.reshape(-1)
    alphas = {format(i, f"0{len(qlbits)}b"): float(a) for i, a in enumerate(flat)}
    return ql.ProjectionReport(alphas, math.sqrt(max(0.0, float(v @ v) - float(flat @ flat))))


def reference_composed_spectrum_csv(c: ql.ComposedSpectrum,
                                    emergent_indices: Sequence[frozenset[int]] | None = None,
                                    ) -> str:
    """The composed spectrum CSV written row by row, with Python's stable sort
    and a mixed-radix decode of each flat index (first factor slowest)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value"] + [f"label_{k + 1}" for k in range(c.n_factors)]
                    + ["n_emergent_factors"])
    values = c.values.tolist()
    for flat in sorted(range(c.size), key=lambda f: -values[f]):
        labels, rest = [], flat
        for n in reversed(c.dims):
            rest, i = divmod(rest, n)
            labels.insert(0, i)
        n_em = 0 if emergent_indices is None else sum(
            1 for i, s in zip(labels, emergent_indices) if i in s)
        writer.writerow([repr(values[flat]), *labels, n_em])
    return buf.getvalue()


def one_shot_histogram(desc: ql.ExperimentDescriptor) -> ql.EnsembleHistogram:
    """Every sample's composed values concatenated, then binned at once over
    uniform edges spanning [min - 0.5, max + 0.5]."""
    values = np.concatenate([s.composed.values for s in ql.iter_samples(desc)])
    edges = np.linspace(values.min() - 0.5, values.max() + 0.5, desc.bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return ql.EnsembleHistogram(edges, counts)
