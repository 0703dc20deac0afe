"""Explicit constructions that the package never builds, kept as test oracles.

The pipeline composes product spectra without forming product graphs or
matrices, and projects product eigenvectors without forming them; these
helpers form them anyway so tests can compare against the dense result.
A QL bit's matrix is rebuilt from one signed edge list over both blocks,
entry by entry, the way the package once built it as a weighted graph, and
by np.block from dense blocks. Each sample's factor matrices are rebuilt
stage by stage from validated `Graph` and `QLBit` objects.
The composed spectrum CSV is also rebuilt here one row at a time, its order
by numpy's stable sort and its label text by one join per index tuple, and the
ensemble histogram from every sample's values held at once, and the samples
whose extremes a values-only chunk re-solves. Graph
validation and d-regular generation are rebuilt on Python sets of edge
tuples and a two-column lexsort, the way the package once did them. Each
sample's stage streams are rebuilt from nested plain
``np.random.SeedSequence`` spawn keys, which the package's own batched hash
must equal.

The paper's Bell-like check lives here too, since no artifact reads it: a QL
bit's emergent eigenvectors, sign-fixed and phase-classified, and the alpha
sign patterns of the four in/out-of-phase products of two bits. So do the
spectrum checks no artifact reads: the eigenpair residual, the
orthonormality defect and the Alon-Boppana bound report.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import qlgraph as ql
from qlgraph.errors import InvalidParameterError


def reference_graph_edges(n: int, edges) -> np.ndarray:
    """Graph's canonical edges by row-wise sort and a two-column lexsort.

    Refuses as Graph does, checking in the same order and naming the first
    offending edge in (u, v) order.
    """
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    u, v = e.T
    repeat = np.concatenate([[False], (e[1:] == e[:-1]).all(axis=1)])
    for bad, problem in ((u == v, "is a self-loop"),
                         ((u < 0) | (v >= n), f"is out of range for n={n}"),
                         (repeat, "is a duplicate")):
        if bad.any():
            i = bad.argmax()
            raise InvalidParameterError(f"edge ({u[i]},{v[i]}) {problem}")
    return e


def reference_pairing_attempt(n: int, d: int, rng: np.random.Generator,
                              ) -> set[tuple[int, int]] | None:
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


def reference_d_regular_random(n: int, d: int, seed: ql.RngSeed) -> ql.Graph:
    """d_regular_random on `reference_pairing_attempt`'s tuple sets, with the
    dense complement taken as a set difference of tuples."""

    def edges(n: int, d: int, rng: np.random.Generator) -> set[tuple[int, int]]:
        if 2 * d > n - 1:
            return {(i, j) for i in range(n) for j in range(i + 1, n)} - edges(n, n - 1 - d, rng)
        while (found := reference_pairing_attempt(n, d, rng)) is None:
            pass
        return found

    return ql.Graph(n, np.array(list(edges(n, d, seed.generator())), dtype=np.int64).reshape(-1, 2))


def reference_adjacency(g: ql.Graph) -> np.ndarray:
    """The adjacency matrix written at the edge rows: 1.0 at (u, v) and (v, u)."""
    m = np.zeros((g.n_vertices, g.n_vertices))
    u, v = g.edges.T
    m[u, v] = m[v, u] = 1.0
    return m


def reference_qlbit_adjacency(q: ql.QLBit) -> np.ndarray:
    """[[A_1, sign*C], [sign*C^T, A_2]] assembled by np.block from dense blocks."""
    c = np.zeros((q.basis_1.n_vertices, q.basis_2.n_vertices))
    c[tuple(q.coupling_edges.T)] = q.sign
    return np.block([[reference_adjacency(q.basis_1), c], [c.T, reference_adjacency(q.basis_2)]])


def reference_delete_random_edges(g: ql.Graph, count: int, seed: ql.RngSeed) -> ql.Graph:
    """The graph less `count` distinct edges drawn over its canonical rows."""
    kept = np.ones(g.n_edges, dtype=bool)
    kept[seed.generator().choice(g.n_edges, size=count, replace=False)] = False
    return ql.Graph(g.n_vertices, g.edges[kept])


def reference_couple(basis_1: ql.Graph, basis_2: ql.Graph, p: float, sign: int,
                     seed: ql.RngSeed) -> ql.QLBit:
    """The QL bit whose cross edges are the (u, v), in (u, v) order, where the
    seed's (n_1, n_2) uniform draws fall below p."""
    cross = seed.generator().random((basis_1.n_vertices, basis_2.n_vertices)) < p
    return ql.QLBit(basis_1, basis_2, np.argwhere(cross), sign)


def reference_diagonal_disorder(a: np.ndarray, sigma: float, seed: ql.RngSeed) -> np.ndarray:
    """A copy of the matrix with the seed's N(0, sigma^2) draws added to its diagonal."""
    a = np.array(a, dtype=np.float64)
    a[np.diag_indices(len(a))] += seed.generator().normal(0.0, sigma, size=len(a))
    return a


def reference_sample_matrices(desc: ql.ExperimentDescriptor, streams: dict,
                              ) -> list[tuple[ql.Graph | None, ql.QLBit | None, np.ndarray]]:
    """Each distinct factor's graph or QL bit (the other None) and the matrix
    to decompose, from one sample's stage streams keyed by stage path. Every
    stage goes through a `Graph` or `QLBit`: cycle edges (i, i+1 mod n), the
    set-based d-regular sampler, deletions drawn over the canonical edge rows,
    cross edges in (u, v) order, dense matrices written at the edge rows, and
    disorder added to a copy's diagonal."""
    sides = range(2 if desc.kind == "qlbit-product" else 1)

    def base(k: int, side: int) -> ql.Graph:
        if desc.graph == "cycle":
            i = np.arange(desc.n)
            return ql.Graph(desc.n, np.stack([i, (i + 1) % desc.n], axis=1))
        return reference_d_regular_random(desc.n, desc.d, streams[0, k, side])

    def factor(k: int, bases: list[ql.Graph]):
        if desc.deletions:
            bases = [reference_delete_random_edges(g, desc.deletions, streams[1, k, side])
                     for side, g in enumerate(bases)]
        if desc.kind == "qlbit-product":
            graph, q = None, reference_couple(*bases, desc.p, desc.sign, streams[2, k])
            a = reference_qlbit_adjacency(q)
        else:
            (graph,), q = bases, None
            a = reference_adjacency(graph)
        if desc.sigma > 0:
            a = reference_diagonal_disorder(a, desc.sigma, streams[3, k])
        return graph, q, a

    first = [base(0, side) for side in sides]
    return [factor(k, first if k == 0 or desc.shared_base else [base(k, side) for side in sides])
            for k in range(1 if desc.identical_factors else desc.n_factors)]


def spawned_seed(seed: int, *key: int) -> int:
    """``RngSeed(seed).derive(*key).seed`` by plain SeedSequence: the first
    uint64 that ``SeedSequence(seed, spawn_key=(0, *key))`` generates."""
    return int(np.random.SeedSequence(seed, spawn_key=(0, *key)).generate_state(1, np.uint64)[0])


def stage_stream(master_seed: int, sample: int, path: Sequence[int]) -> tuple[int, dict]:
    """The seed of sample ``sample``'s stage stream ``path`` and its generator's
    PCG64 state, by nested plain SeedSequence spawn keys: the sample seed is
    spawned from the master seed, the stage seed from the sample seed, and the
    generator is keyed by ``SeedSequence(stage seed, spawn_key=(0,))``."""
    seed = spawned_seed(spawned_seed(master_seed, sample), *path)
    return seed, np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).state


def complete_graph(n: int) -> ql.Graph:
    """The complete graph K_n."""
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    return ql.Graph(n, np.column_stack(np.triu_indices(n, 1)))


def graph_from_adjacency(a: np.ndarray) -> ql.Graph:
    """Recover the graph whose edges are the nonzero off-diagonal entries."""
    u, v = np.nonzero(np.triu(a, 1))
    return ql.Graph(len(a), np.column_stack([u, v]))


def reference_composite(q: ql.QLBit) -> tuple[int, np.ndarray, np.ndarray]:
    """A QL bit as one graph on both blocks: its vertex count, edges and
    weights. basis_1's edges, then basis_2's and the cross edges shifted past
    basis_1's vertices; weight 1 within a block and ``sign`` across."""
    n1 = q.basis_1.n_vertices
    edges = np.concatenate([q.basis_1.edges, q.basis_2.edges + n1, q.coupling_edges + (0, n1)])
    weights = np.concatenate([np.ones(q.basis_1.n_edges + q.basis_2.n_edges),
                              np.full(q.n_coupling, float(q.sign))])
    return n1 + q.basis_2.n_vertices, edges, weights


def weighted_adjacency(n: int, edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The n x n matrix with each edge's weight at (u, v) and (v, u), written entry by entry."""
    m = np.zeros((n, n))
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        m[u, v] = m[v, u] = w
    return m


def reference_is_connected(n: int, edges: np.ndarray) -> bool:
    """Depth-first search from vertex 0 over Python neighbour lists."""
    neighbours = [[] for _ in range(n)]
    for u, v in edges.tolist():
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


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
    other stands still."""
    dim = g.n_vertices * h.n_vertices
    nh = h.n_vertices
    # (u, v) in g with h standing at x, then (x, y) in h with g standing at u.
    g_steps = g.edges[:, None, :] * nh + np.arange(nh)[None, :, None]
    h_steps = np.arange(g.n_vertices)[:, None, None] * nh + h.edges[None, :, :]
    edges = np.concatenate([g_steps.reshape(-1, 2), h_steps.reshape(-1, 2)])
    return ProductGraph((g, h), ql.Graph(dim, edges))


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


def cartesian_product_adjacency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Cartesian product of two weighted matrices, entry by entry: a[i, j]
    where the first factor steps i -> j and the second stands at x, b[x, y]
    where the second steps and the first stands at i; flat index i*len(b) + x."""
    nb = len(b)
    m = np.zeros((len(a) * nb, len(a) * nb))
    for i, j in zip(*np.nonzero(a)):
        for x in range(nb):
            m[i * nb + x, j * nb + x] += a[i, j]
    for i in range(len(a)):
        for x, y in zip(*np.nonzero(b)):
            m[i * nb + x, i * nb + y] += b[x, y]
    return m


def product_eigenvector(spectra: Sequence[tuple[np.ndarray, np.ndarray]],
                        labels: Sequence[int]) -> np.ndarray:
    """Tensor product of the labeled factor eigenvectors (first factor slowest),
    from each factor's `eigendecompose` pair."""
    return functools.reduce(np.kron, [vecs[:, i] for (_, vecs), i in zip(spectra, labels)])


def dense_project_alphas(v: np.ndarray, qlbits: Sequence[ql.QLBit],
                         ) -> tuple[dict[str, float], float]:
    """``(alphas, residual_norm)`` of any product-space vector, product or not:
    contract each factor axis of ``v`` with that bit's [J_0, J_1]."""
    v = np.asarray(v, dtype=np.float64)
    tensor = v.reshape([q.n_vertices for q in qlbits])
    for q in qlbits:
        tensor = np.tensordot(tensor, np.stack(q.block_uniform(), axis=1), axes=([0], [0]))
    flat = tensor.reshape(-1)
    alphas = {format(i, f"0{len(qlbits)}b"): float(a) for i, a in enumerate(flat)}
    return alphas, math.sqrt(max(0.0, float(v @ v) - float(flat @ flat)))


def reference_composed_spectrum_csv(composed: np.ndarray, dims: Sequence[int],
                                    emergent_indices: Sequence[frozenset[int]]) -> str:
    """The composed spectrum CSV written row by row, with Python's stable sort
    and a mixed-radix decode of each flat index (first factor slowest)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value"] + [f"label_{k + 1}" for k in range(len(dims))]
                    + ["n_emergent_factors"])
    values = composed.tolist()
    for flat in sorted(range(composed.size), key=lambda f: -values[f]):
        labels, rest = [], flat
        for n in reversed(dims):
            rest, i = divmod(rest, n)
            labels.insert(0, i)
        n_em = sum(1 for i, s in zip(labels, emergent_indices) if i in s)
        writer.writerow([repr(values[flat]), *labels, n_em])
    return buf.getvalue()


def reference_descending_order(values: np.ndarray) -> np.ndarray:
    """Flat indices by descending value, ties in flat order: numpy's stable
    sort of the negated values."""
    return np.argsort(-values, kind="stable")


def reference_label_texts(dims: Sequence[int]) -> np.ndarray:
    """`",i_1,...,i_k"` for every index tuple of ``dims`` in C order, joined
    one `itertools.product` tuple at a time."""
    return np.array(["".join(f",{i}" for i in t) for t in itertools.product(*map(range, dims))],
                    dtype=object)


def one_shot_histogram(desc: ql.ExperimentDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's composed values, each sample run alone, concatenated,
    then binned at once over uniform edges spanning [min - 0.5, max + 0.5]."""
    values = np.concatenate([ql.run_sample(desc, i).composed
                             for i in range(desc.n_samples)])
    edges = np.linspace(values.min() - 0.5, values.max() + 0.5, desc.bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return counts, edges


def range_picks(desc: ql.ExperimentDescriptor, chunks: Sequence[range],
                rate: float) -> list[list[int]]:
    """Per chunk of a QL run solved values-only, the samples re-solved with
    eigenvectors: those whose greatest or least composed value, with every
    sample run alone, lies within 2*tol of the greatest or least over this
    chunk and the ones before, tol being ``rate`` times the largest of 1 and
    both magnitudes."""
    top, bottom, picks = -math.inf, math.inf, []
    for chunk in chunks:
        values = [ql.run_sample(desc, i).composed for i in chunk]
        top = max(top, *(v.max() for v in values))
        bottom = min(bottom, *(v.min() for v in values))
        tol = rate * max(1.0, abs(top), abs(bottom))
        picks.append([i for i, v in zip(chunk, values)
                      if v.max() >= top - 2 * tol or v.min() <= bottom + 2 * tol])
    return picks


def fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip the vector so its largest-magnitude component is positive; ties
    break on the first maximal index."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def spectral_gap(values: np.ndarray) -> float:
    """Gap between the two largest of descending eigenvalues, lambda_0 - lambda_1."""
    if len(values) < 2:
        raise InvalidParameterError("spectral gap needs dim >= 2")
    return float(values[0] - values[1])


def max_residual(a: np.ndarray, s: tuple[np.ndarray, np.ndarray]) -> float:
    """max over the pairs of an `eigendecompose` pair of
    ||A v - lambda v||_inf / max(1, |lambda|)."""
    values, vectors = s
    r = a @ vectors - vectors * values[np.newaxis, :]
    scale = np.maximum(1.0, np.abs(values))
    return float(np.max(np.max(np.abs(r), axis=0) / scale))


def orthonormality_defect(s: tuple[np.ndarray, np.ndarray]) -> float:
    """max entrywise deviation of V^T V from the identity, V the vectors of
    an `eigendecompose` pair."""
    _, vectors = s
    gram = vectors.T @ vectors
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


# Finite graphs may exceed the asymptotic Alon-Boppana bound by this much.
AB_SLACK = 0.5


@dataclass(frozen=True)
class AlonBoppanaReport:
    """Finite-size check of lambda_1 against the 2*sqrt(d-1) bound."""

    bound: float
    lambda_1: float
    satisfied: bool


def alon_boppana_check(values: np.ndarray, d: int) -> AlonBoppanaReport:
    """Report whether lambda_1 respects 2*sqrt(d-1) up to the finite-size AB_SLACK.

    Report-only: finite graphs occasionally exceed the asymptotic bound, so
    callers log violations rather than fail on them.
    """
    bound = 2.0 * math.sqrt(d - 1)
    lam1 = float(values[1])
    return AlonBoppanaReport(bound, lam1, lam1 <= bound + AB_SLACK)


def degrees(g: ql.Graph) -> np.ndarray:
    """Each vertex's edge count."""
    return np.bincount(g.edges.ravel(), minlength=g.n_vertices)


def emergent_states(q: ql.QLBit, s: tuple[np.ndarray, np.ndarray],
                    ) -> list[tuple[float, np.ndarray, int]]:
    """The top two eigenpairs of the QL bit's `eigendecompose` pair ``s`` as
    (eigenvalue, sign-fixed vector, phase). The phase is the sign of the
    product of the vector's block means: +1 in phase, -1 out of phase, 0
    indeterminate. An exactly degenerate pair (p=0) is resolved onto
    J_0 + J_1 and J_0 - J_1 where its span holds them."""
    (lam, vectors), n1 = s, q.basis_1.n_vertices
    top = vectors[:, :2]
    # Strided column views: a contiguous copy can change `w @ j0` in the last ulp.
    states = [(float(lam[k]), fix_sign(v), int(np.sign(v[:n1].mean()) * np.sign(v[n1:].mean())))
              for k, v in enumerate(top.T)]
    if abs(lam[0] - lam[1]) <= 1e-9 * max(1.0, abs(lam[0])):
        j0, j1 = q.block_uniform()
        proj = top @ top.T
        for k, (combo, phase) in enumerate(((j0 + j1, 1), (j0 - j1, -1))):
            w = proj @ combo
            norm = np.linalg.norm(w)
            if norm >= 1e-8:
                states[k] = (float(lam[k]), fix_sign(w / norm), phase)
    return states


def bell_patterns(qa: ql.QLBit, qb: ql.QLBit,
                  ) -> dict[tuple[int, int], tuple[float, tuple[dict[str, float], float]]]:
    """For each choice (s_a, s_b), +1 the in-phase and -1 the out-of-phase
    state of each bit, the summed eigenvalue and the `project_alphas` pair
    of the product state. A bit whose phases do not split one each way gives
    its states by position."""
    chosen = []
    for q in (qa, qb):
        states = emergent_states(q, ql.eigendecompose(q.adjacency()))
        if sorted(phase for _, _, phase in states) == [-1, 1]:
            states.sort(key=lambda st: -st[2])
        chosen.append(states)
    out = {}
    for sa, sb in itertools.product((1, -1), repeat=2):
        (la, va, _), (lb, vb, _) = chosen[0][(1 - sa) // 2], chosen[1][(1 - sb) // 2]
        out[(sa, sb)] = (la + lb, ql.project_alphas((qa, qb), (va, vb)))
    return out
