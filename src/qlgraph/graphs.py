"""Basis graphs: construction, validation and dense adjacency matrices.

Graphs are simple, undirected and unweighted. Edges are held as an (m, 2)
int64 array of (u, v) with u < v, sorted by (u, v). The canonical order
makes every downstream random draw over edges deterministic. The deletion
and adjacency stages take such edge rows as they are, unvalidated, so the
pipeline can run them without building a `Graph`; `delete_random_edges`
and `adjacency` are their `Graph` wrappers.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailureError, InvalidParameterError, require_int
from .rng import RngSeed

DEFAULT_MAX_RESTARTS = 10_000
# Edge keys u * n + v stay below n**2, which must fit in int64.
MAX_VERTICES = 2**31


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n_vertices-1.

    ``n_vertices`` is an integer in [1, MAX_VERTICES]; ``edges`` is the
    `canonical_edges` of the rows given, in any order and with endpoints in
    either order. Instances and their arrays are immutable.
    """

    n_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        n = require_int("n_vertices", self.n_vertices)
        if not 0 < n <= MAX_VERTICES:
            raise InvalidParameterError(f"n_vertices must be in [1, {MAX_VERTICES}], got {n}")
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", canonical_edges(self.edges, n))

    @classmethod
    def _of_canonical(cls, n: int, edges: np.ndarray) -> "Graph":
        """The graph on n vertices of edge rows canonical by construction, made
        read-only in place: skips __post_init__'s checks."""
        edges.flags.writeable = False
        g = object.__new__(cls)
        vars(g).update(n_vertices=n, edges=edges)
        return g

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def canonical_edges(edges, n: int, cols: int | None = None) -> np.ndarray:
    """Read-only (m, 2) int64 rows (u, v), sorted: a graph's edges on n
    vertices, each row ordered to u < v, or with ``cols`` a QL bit's cross
    edges from vertex u of n to v of cols. Refuses endpoints that are not an
    (m, 2) integer array (empty is fine), then, naming the smallest offending
    (u, v), a self-loop, an endpoint out of range and a duplicate."""
    undirected = cols is None
    what, cols, outside = (("edge", n, f"is out of range for n={n}") if undirected
                           else ("coupling edge", cols, "does not bridge the blocks"))
    e = np.asarray(edges)
    if e.size == 0:
        e = e.reshape(0, 2)
    elif not np.issubdtype(e.dtype, np.integer):
        raise InvalidParameterError(f"{what} endpoints must be integers, got dtype {e.dtype}")
    if e.ndim != 2 or e.shape[1] != 2:
        raise InvalidParameterError(f"need (m, 2) {what}s, got shape {e.shape}")
    u, v = e.astype(np.int64, copy=False).T
    if undirected:
        u, v = np.minimum(u, v), np.maximum(u, v)
        _refuse_first(u == v, u, v, what, "is a self-loop")
    _refuse_first((u < 0) | (u >= n) | (v < 0) | (v >= cols), u, v, what, outside)
    # One flat key orders rows by (u, v).
    key = u * cols + v
    order = np.argsort(key)
    key, u, v = key[order], u[order], v[order]
    _refuse_first(np.concatenate([[False], key[1:] == key[:-1]]), u, v, what, "is a duplicate")
    e = np.stack((u, v), axis=1)
    e.flags.writeable = False
    return e


def _refuse_first(bad: np.ndarray, u: np.ndarray, v: np.ndarray, what: str, problem: str) -> None:
    """InvalidParameterError naming the smallest (u, v) among the rows flagged bad, if any."""
    if bad.any():
        rows = np.flatnonzero(bad)
        i = rows[np.lexsort((v[rows], u[rows]))[0]]
        raise InvalidParameterError(f"{what} ({u[i]},{v[i]}) {problem}")


def cycle_graph(n: int) -> Graph:
    """The n-cycle C_n: edges (i, i+1 mod n), every vertex degree 2."""
    if require_int("n", n) < 3:
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


def d_regular_random(n: int, d: int, seed: RngSeed) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic in seed.

    Uses the configuration (stub-pairing) model with repair of clashing
    stubs. Dense degrees (2d > n-1) are reduced to the sparse complement:
    an (n-1-d)-regular graph is sampled and complemented, which is exact
    and keeps degrees close to n-1 feasible. Gives up with
    GenerationFailureError after DEFAULT_MAX_RESTARTS failed passes.
    """
    n, d = require_int("n", n), require_int("d", d)
    if d < 1:
        raise InvalidParameterError(f"degree must be positive, got {d}")
    if n <= d:
        raise InvalidParameterError(f"need n > d, got n={n}, d={d}")
    if (n * d) % 2 != 0:
        raise InvalidParameterError(f"n*d must be even, got n={n}, d={d}")
    return Graph._of_canonical(n, _d_regular_edges(n, d, seed.generator()))


def _d_regular_edges(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """(m, 2) int64 edges (u, v), u < v, of a d-regular graph, in canonical order."""
    if 2 * d > n - 1:
        taken = np.tri(n, dtype=bool)  # the diagonal and below hold no edge (u, v) with u < v
        comp = _d_regular_edges(n, n - 1 - d, rng)
        taken[comp[:, 0], comp[:, 1]] = True
        return np.argwhere(~taken)
    restarts = 0
    while restarts < DEFAULT_MAX_RESTARTS:
        edges = _pairing_attempt(n, d, rng)
        if edges is not None:
            key = np.fromiter((u * n + v for u, v in edges), dtype=np.int64, count=len(edges))
            key.sort()  # (u, v) order
            return np.stack(np.divmod(key, n), axis=1)
        restarts += 1
    raise GenerationFailureError(
        f"d-regular generation failed for n={n}, d={d} after {restarts} restarts", restarts
    )


def drop_random_edges(edges: np.ndarray, count: int, seed: RngSeed) -> np.ndarray:
    """The edge rows without `count` uniformly chosen distinct rows, order kept."""
    count = require_int("count", count)
    if count < 0:
        raise InvalidParameterError(f"count must be non-negative, got {count}")
    if count > len(edges):
        raise InvalidParameterError(f"cannot delete {count} of {len(edges)} edges")
    kept = np.ones(len(edges), dtype=bool)
    kept[seed.generator().choice(len(edges), size=count, replace=False)] = False
    return edges[kept]


def delete_random_edges(g: Graph, count: int, seed: RngSeed) -> Graph:
    """A copy of g with `count` uniformly chosen distinct edges removed."""
    return Graph._of_canonical(g.n_vertices, drop_random_edges(g.edges, count, seed))


def edge_adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    """Dense symmetric float64 n x n matrix: 1.0 at each edge row (u, v) and at (v, u)."""
    m = np.zeros((n, n))
    u, v = edges.T
    m[u, v] = m[v, u] = 1.0
    return m


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric float64 adjacency matrix: 1.0 at each edge, 0.0 elsewhere."""
    return edge_adjacency(g.n_vertices, g.edges)


def apply_diagonal_disorder(a: np.ndarray, sigma: float, seed: RngSeed) -> np.ndarray:
    """A copy of square matrix a with independent N(0, sigma^2) draws added to its diagonal."""
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    # An int past float range would overflow in the draw; a bool is no real.
    if isinstance(sigma, (bool, np.bool_)) or not 0 <= sigma <= sys.float_info.max:
        raise InvalidParameterError(f"sigma must be finite and non-negative, got {sigma}")
    m[np.diag_indices(len(m))] += seed.generator().normal(0.0, sigma, size=len(m))
    return m


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
