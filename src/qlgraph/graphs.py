"""Basis graphs: construction, validation and dense adjacency matrices.

Graphs are simple, undirected and unweighted. Edges are held as an (m, 2)
int64 array of (u, v) with u < v, sorted by (u, v). The canonical order
makes every downstream random draw over edges deterministic. The stages build
on rows canonical by construction, without validating them again, for B items
at once, one seed an item; each public stage function is the batch of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GenerationFailureError, InvalidParameterError, real_array, real_float,
                     require_int, shown)
from .rng import RngSeed

DEFAULT_MAX_RESTARTS = 10_000
# Edge keys u * n + v stay below n**2, which must fit in int64.
MAX_VERTICES = 2**31
MIN_CYCLE = 3  # the shortest cycle of a simple graph
# Past this many deletions an item's own ``choice`` is faster (measured: 32 to
# 48). Below 200, ``choice`` draws by Floyd's rule, never by its tail shuffle.
_RAW_DELETIONS = 32


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
        n = require_int("n_vertices", self.n_vertices, 1, MAX_VERTICES)
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
    try:
        e = np.asarray(edges)
    except ValueError:  # rows of different lengths
        raise InvalidParameterError(f"need (m, 2) {what}s, got ragged rows") from None
    if e.size == 0:
        e = e.reshape(0, 2)
    elif not np.issubdtype(e.dtype, np.integer):
        # numpy holds a list of ints past int64 as float64 or object: check
        # such a list as its exact ints, so the offending row is named.
        ints = None if isinstance(edges, np.ndarray) else np.asarray(edges, dtype=object)
        if ints is None or not all(type(x) is int for x in ints.flat):
            raise InvalidParameterError(f"{what} endpoints must be integers, got dtype {e.dtype}")
        e = ints
    if e.ndim != 2 or e.shape[1] != 2:
        raise InvalidParameterError(f"need (m, 2) {what}s, got shape {e.shape}")
    # Checked in the given dtype, so no endpoint wraps before it is named.
    u, v = e.T
    if undirected:
        u, v = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    _refuse_first((u == v) & undirected, u, v, what, "is a self-loop")
    _refuse_first((u < 0) | (u >= n) | (v < 0) | (v >= cols), u, v, what, outside)
    repeat = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    _refuse_first(np.concatenate([[False], repeat]), u, v, what, "is a duplicate")
    e = np.stack((u, v), axis=1).astype(np.int64, copy=False)
    e.flags.writeable = False
    return e


def _refuse_first(bad: np.ndarray, u: np.ndarray, v: np.ndarray, what: str, problem: str) -> None:
    """InvalidParameterError naming the first (u, v) among the rows flagged bad,
    if any: the smallest, as the rows are sorted."""
    if bad.any():
        i = bad.argmax()
        raise InvalidParameterError(f"{what} ({shown(int(u[i]))},{shown(int(v[i]))}) {problem}")


def cycle_graph(n: int) -> Graph:
    """The n-cycle C_n: edges (i, i+1 mod n), every vertex degree 2."""
    n = require_int("n", n, MIN_CYCLE, MAX_VERTICES)
    return Graph._of_canonical(n, _cycle_rows(n, 1)[0])


def _cycle_rows(n: int, count: int) -> np.ndarray:
    """(count, n, 2) views of C_n's rows (0, 1), (0, n-1), (1, 2), ..., (n-2, n-1)."""
    rows = np.stack((np.arange(-1, n - 1, dtype=np.int64), np.arange(n, dtype=np.int64)), axis=1)
    rows[:2] = (0, 1), (0, n - 1)  # (i - 1, i) for i >= 2, in canonical order
    return np.broadcast_to(rows, (count, n, 2))


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> set[int] | None:
    """One stub-matching pass of the configuration model.

    Pairs all n*d stubs, keeps valid pairs as edge keys u * n + v (u < v) and
    lists both stubs of each clashing pair (a self-loop or a repeat); the
    leftovers are that list sorted, re-shuffled for the next round. Returns
    None when every two distinct clashing vertices are already joined.
    """
    keys: set[int] = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        clashing: list[int] = []
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            key = s1 * n + s2 if s1 < s2 else s2 * n + s1
            if s1 == s2 or key in keys:
                clashing += s1, s2
            else:
                keys.add(key)
        if not clashing:
            return keys
        nodes = sorted(set(clashing))  # ascending, so a < b below
        if all(a * n + b in keys for i, a in enumerate(nodes) for b in nodes[i + 1 :]):
            return None
        stubs = sorted(clashing)
    return keys


def _checked_degree(n, d) -> tuple[int, int]:
    """n and d as ints: d in [1, MAX_VERTICES - 1], then n in [d + 1, MAX_VERTICES], n*d even."""
    d = require_int("d", d, 1, MAX_VERTICES - 1)
    n = require_int("n", n, d + 1, MAX_VERTICES)
    if (n * d) % 2 != 0:
        raise InvalidParameterError(f"n*d must be even, got n={n}, d={d}")
    return n, d


def d_regular_random(n: int, d: int, seed: RngSeed) -> Graph:
    """Sample a simple d-regular graph on n vertices, deterministic in seed.

    Uses the configuration (stub-pairing) model with repair of clashing
    stubs. Dense degrees (2d > n-1) are reduced to the sparse complement:
    an (n-1-d)-regular graph is sampled and complemented, which is exact
    and keeps degrees close to n-1 feasible. Gives up with
    GenerationFailureError after DEFAULT_MAX_RESTARTS failed passes.
    """
    n, d = _checked_degree(n, d)
    if 2 * d > n - 1:
        return Graph._of_canonical(n, _d_regular_rows(n, d, (seed,))[0])
    rng = seed.generator()
    for _ in range(DEFAULT_MAX_RESTARTS):
        keys = _pairing_attempt(n, d, rng)
        if keys is not None:
            rows = np.empty((len(keys), 2), dtype=np.int64)
            np.divmod(np.fromiter(sorted(keys), np.int64, len(keys)), n, out=tuple(rows.T))
            return Graph._of_canonical(n, rows)
    raise GenerationFailureError(f"d-regular generation failed for n={n}, d={d} after "
                                 f"{DEFAULT_MAX_RESTARTS} restarts", DEFAULT_MAX_RESTARTS)


def _d_regular_rows(n: int, d: int, seeds: tuple[RngSeed, ...]) -> np.ndarray:
    """(B, n*d/2, 2): `d_regular_random`'s rows for B seeds, called per seed for a sparse
    degree, complemented at once for a dense one; a failure's ``item`` indexes its seed."""
    if 2 * d <= n - 1:
        rows = np.empty((len(seeds), n * d // 2, 2), dtype=np.int64)
        for item, seed in enumerate(seeds):
            try:
                rows[item] = d_regular_random(n, d, seed).edges
            except GenerationFailureError as exc:
                exc.item = item
                raise
        return rows
    taken = np.tile(np.tri(n, dtype=bool).ravel(), (len(seeds), 1))  # no key u*n + v, u < v
    if d < n - 1:  # K_n is the complement of the edgeless graph; keys are rows @ (n, 1)
        taken[np.arange(len(seeds))[:, None], _d_regular_rows(n, n - 1 - d, seeds) @ [n, 1]] = True
    keys = np.flatnonzero(~taken)  # item * n^2 + u*n + v
    keys %= n * n
    rows = np.empty((len(seeds), n * d // 2, 2), dtype=np.int64)
    np.divmod(keys.reshape(len(seeds), -1), n, out=(rows[..., 0], rows[..., 1]))
    return rows


def delete_random_edges(g: Graph, count: int, seed: RngSeed) -> Graph:
    """A copy of g with `count` uniformly chosen distinct edges removed: the rows
    kept are bit for bit those ``seed.generator().choice(m, count, replace=False)``
    leaves. `_deleted_rows` replays that draw, and says when it calls ``choice``."""
    count = require_int("count", count, 0, g.n_edges)
    return Graph._of_canonical(g.n_vertices, _deleted_rows(g.edges[None], count, (seed,))[0])


def _deleted_rows(rows: np.ndarray, count: int, seeds: tuple[RngSeed, ...]) -> np.ndarray:
    """(B, m - count, 2): each item's rows less those at its seed's
    ``generator().choice(m, count, replace=False)``, bit for bit.

    Up to _RAW_DELETIONS deletions the chunk replays that draw from one
    ``random_raw`` call per seed: 32-bit draws, each word's low half first;
    Lemire's bounded draw (x * (j + 1)) >> 32 for j = m - count .. m - 1;
    Floyd's rule, a value drawn before becomes j (count = m deletes every row
    whatever is drawn). ``choice`` itself draws an item whose low product
    x * (j + 1) mod 2**32 is below j + 1, where Lemire may redraw, every item
    of a larger count, and every item past 2**32 rows.
    """
    (b, m), first = rows.shape[:2], rows.shape[1] - count
    kept = np.ones((b, m), dtype=bool)
    redraw = range(b)
    if count <= _RAW_DELETIONS and m <= 2**32:
        n_words = (count + 1) // 2
        words = np.array([seed.generator().bit_generator.random_raw(n_words) for seed in seeds],
                         dtype="<u8").reshape(b, n_words)
        bound = np.arange(first + 1, m + 1, dtype=np.uint64)
        draws = words.view("<u4")[:, :count] * bound
        picks = (draws >> 32).astype(np.int64)
        kept[np.arange(b)[:, None], picks] = False
        for item in np.flatnonzero(kept.sum(1) > first):  # a value drawn twice
            chosen: set[int] = set()
            for j, value in enumerate(picks[item].tolist(), first):
                chosen.add(j if value in chosen else value)
            kept[item, list(chosen)] = False
        redraw = np.flatnonzero(((draws & 0xFFFF_FFFF) < bound).any(1))
    for item in redraw:
        kept[item] = True
        kept[item][seeds[item].generator().choice(m, size=count, replace=False)] = False
    return rows[kept].reshape(b, first, 2)


def adjacency(g: Graph) -> np.ndarray:
    """Dense symmetric float64 adjacency matrix: 1.0 at each edge, 0.0 elsewhere."""
    m = np.zeros((g.n_vertices, g.n_vertices))
    _write_rows(m[None], g.edges[None])
    return m


def _write_rows(mats: np.ndarray, rows: np.ndarray, shift: int = 0) -> None:
    """Writes 1.0 into B matrices at their (m, 2) rows (u, v) + shift and mirrors."""
    s, u, v = np.arange(len(rows))[:, None], rows[..., 0] + shift, rows[..., 1] + shift
    mats[s, u, v] = mats[s, v, u] = 1.0


def apply_diagonal_disorder(a: np.ndarray, sigma: float, seed: RngSeed) -> np.ndarray:
    """A copy of square matrix a with independent N(0, sigma^2) draws added to its diagonal."""
    m = real_array("matrix", a).copy()
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"matrix must be square, got shape {m.shape}")
    if not 0 <= real_float(sigma) < math.inf:
        raise InvalidParameterError(f"sigma must be finite and non-negative, got {shown(sigma)}")
    _add_disorder(m[None], sigma, (seed,))
    return m


def _add_disorder(mats: np.ndarray, sigma: float, seeds: tuple[RngSeed, ...]) -> None:
    """Adds to each of B matrices' diagonal its seed's N(0, sigma^2) draws, in place."""
    i = np.arange(mats.shape[-1])
    mats[:, i, i] += [seed.generator().normal(0.0, sigma, size=len(i)) for seed in seeds]


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
