"""Basis graphs: construction, validation and dense adjacency matrices.

Graphs are simple, undirected and weighted (default weight +1). Edges are
held as an (m, 2) int64 array of (u, v) with u < v, sorted by (u, v), with
the weights in a parallel float64 array. The canonical order makes every
downstream random draw over edges deterministic.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError
from .rng import RngSeed

DEFAULT_MAX_RESTARTS = 10_000


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected weighted graph on vertices 0..n_vertices-1.

    ``edges`` is an (m, 2) int64 array, each row (u, v) with u < v, rows
    sorted; ``weights`` is the matching (m,) float64 array, all +1 when
    omitted. Endpoints may be given in either order and rows in any order.
    Invariants enforced at construction: no self-loops, no duplicate edges,
    all endpoints in range, finite weights. Instances and their arrays are
    immutable.
    """

    n_vertices: int
    edges: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        n = self.n_vertices
        if n <= 0:
            raise InvalidParameterError(f"n_vertices must be positive, got {n}")
        e = np.asarray(self.edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        w = np.ones(len(e)) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != 2 or w.shape != (len(e),):
            raise InvalidParameterError(
                f"need (m, 2) edges and (m,) weights, got shapes {e.shape} and {w.shape}")
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
        e.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "weights", w)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Dense symmetric real matrix realization of a graph.

    The diagonal is zero unless disorder has been applied to it.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameterError(f"adjacency must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise InvalidParameterError("adjacency must be exactly symmetric")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def cycle_graph(n: int) -> Graph:
    """The n-cycle C_n: edges (i, i+1 mod n), every vertex degree 2."""
    if n < 3:
        raise InvalidParameterError(f"cycle needs n >= 3 vertices, got {n}")
    i = np.arange(n)
    return Graph(n, np.stack([i, (i + 1) % n], axis=1))


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One stub-matching pass of the configuration model.

    Pairs all n*d stubs, keeps valid pairs and re-shuffles the leftovers;
    returns None when the remaining stubs admit no suitable pair.
    """
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        potential: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential[s1] += 1
                potential[s2] += 1
        if not potential:
            return edges
        nodes = sorted(potential)
        suitable = any(
            (min(a, b), max(a, b)) not in edges
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        )
        if not suitable:
            return None
        stubs = [v for v in nodes for _ in range(potential[v])]
    return edges


def d_regular_random(n: int, d: int, seed: RngSeed,
                     max_restarts: int = DEFAULT_MAX_RESTARTS) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic in seed.

    Uses the configuration (stub-pairing) model with repair of clashing
    stubs. Dense degrees (2d > n-1) are reduced to the sparse complement:
    an (n-1-d)-regular graph is sampled and complemented, which is exact
    and keeps degrees close to n-1 feasible.
    """
    if d < 1:
        raise InvalidParameterError(f"degree must be positive, got {d}")
    if n <= d:
        raise InvalidParameterError(f"need n > d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise InvalidParameterError(f"n*d must be even, got n={n}, d={d}")
    edges = _d_regular_edges(n, d, seed.generator(), max_restarts)
    return Graph(n, np.array(list(edges), dtype=np.int64).reshape(-1, 2))


def _d_regular_edges(n: int, d: int, rng: np.random.Generator,
                     max_restarts: int) -> set[tuple[int, int]]:
    if d == 0:
        return set()
    if 2 * d > n - 1:
        comp = _d_regular_edges(n, n - 1 - d, rng, max_restarts)
        return {(i, j) for i in range(n) for j in range(i + 1, n)} - comp
    restarts = 0
    while restarts < max_restarts:
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            return edges
        restarts += 1
    raise GenerationFailureError(
        f"d-regular generation failed for n={n}, d={d} after {restarts} restarts", restarts
    )


def delete_random_edges(g: Graph, count: int, seed: RngSeed) -> Graph:
    """A copy of g with `count` uniformly chosen distinct edges removed."""
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")
    if count > g.n_edges:
        raise InvalidParameterError(f"cannot delete {count} of {g.n_edges} edges")
    if count == 0:
        return g
    kept = np.ones(g.n_edges, dtype=bool)
    kept[seed.generator().choice(g.n_edges, size=count, replace=False)] = False
    return Graph(g.n_vertices, g.edges[kept], g.weights[kept])


def adjacency(g: Graph) -> AdjacencyMatrix:
    """Dense symmetric adjacency matrix; entries equal edge weights."""
    m = np.zeros((g.n_vertices, g.n_vertices), dtype=np.float64)
    u, v = g.edges.T
    m[u, v] = g.weights
    m[v, u] = g.weights
    return AdjacencyMatrix(m)


def apply_diagonal_disorder(a: AdjacencyMatrix, sigma: float, seed: RngSeed) -> AdjacencyMatrix:
    """Add independent N(0, sigma^2) draws to the diagonal, off-diagonal untouched."""
    if sigma < 0:
        raise InvalidParameterError(f"sigma must be non-negative, got {sigma}")
    draws = seed.generator().normal(0.0, sigma, size=a.dim)
    entries = a.entries.copy()
    entries[np.diag_indices(a.dim)] += draws
    return AdjacencyMatrix(entries)


def is_connected(g: Graph) -> bool:
    """Breadth-first connectivity check, one whole frontier per step."""
    u, v = g.edges.T
    seen = np.zeros(g.n_vertices, dtype=bool)
    seen[0] = True
    while True:
        crossing = seen[u] != seen[v]
        if not crossing.any():
            return bool(seen.all())
        seen[u[crossing]] = True
        seen[v[crossing]] = True
