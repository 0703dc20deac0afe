"""Property tests of the numerical claims: projection Parseval, spectrum
composition, and the histogram range found without the composed grid, each
held against an explicit oracle. Graph's canonical arrays and refusals, and
the seed streams, are held the same way against a two-column lexsort and
against numpy's own SeedSequence: one stream at a time, in batches, and
as each stage function of the pipeline receives it. Samples run in chunks
are held bitwise against the same samples run one at a time."""
import functools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlgraph as ql
from qlgraph.errors import InvalidParameterError
from qlgraph.rng import derive_streams

from oracles import (dense_project_alphas, kronecker_sum_adjacency, one_shot_histogram,
                     reference_composite, reference_graph_edges,
                     reference_is_connected, reference_qlbit_adjacency,
                     reference_sample_matrices, spawned_seed, stage_stream, weighted_adjacency)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def qlbit_and_vector(draw):
    """A small QL bit and an arbitrary vector on its composite."""
    n = 2 * draw(st.integers(2, 4))  # even n: every degree below n is feasible
    d = draw(st.integers(1, n - 1))
    root = ql.RngSeed(draw(SEEDS))
    q = ql.couple(ql.d_regular_random(n, d, root.derive(0)),
                  ql.d_regular_random(n, d, root.derive(1)),
                  draw(st.floats(0.0, 1.0)), draw(st.sampled_from([1, -1])), root.derive(2))
    w = draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n))
    return q, np.array(w)


@st.composite
def factor_adjacency(draw):
    """A cycle or a d-regular graph, with or without diagonal disorder."""
    root = ql.RngSeed(draw(SEEDS))
    if draw(st.booleans()):
        g = ql.cycle_graph(draw(st.integers(3, 6)))
    else:
        n = 2 * draw(st.integers(2, 3))
        g = ql.d_regular_random(n, draw(st.integers(1, n - 1)), root.derive(0))
    sigma = draw(st.sampled_from([0.0, 0.5, 2.0]))
    a = ql.adjacency(g)
    return ql.apply_diagonal_disorder(a, sigma, root.derive(1)) if sigma else a


@PROPERTY_SETTINGS
@given(bits=st.lists(qlbit_and_vector(), min_size=1, max_size=3))
def test_project_alphas_parseval_and_dense_agreement(bits):
    qlbits = [q for q, _ in bits]
    vectors = [w for _, w in bits]
    report = ql.project_alphas(qlbits, vectors)
    norm_sq = float(np.prod([w @ w for w in vectors]))
    tol = 1e-9 * max(1.0, norm_sq)
    total = sum(a * a for a in report.alphas.values()) + report.residual_norm**2
    assert abs(total - norm_sq) <= tol
    dense = dense_project_alphas(functools.reduce(np.kron, vectors), qlbits)
    assert report.alphas.keys() == dense.alphas.keys()
    for key, alpha in report.alphas.items():
        assert abs(alpha - dense.alphas[key]) <= tol


@PROPERTY_SETTINGS
@given(factors=st.lists(factor_adjacency(), min_size=2, max_size=3))
def test_compose_spectra_matches_kronecker_sum_and_regroups_exactly(factors):
    spectra = [ql.eigendecompose(a, want_vectors=False) for a in factors]
    composed = ql.compose_spectra(spectra).values
    explicit = np.linalg.eigvalsh(functools.reduce(kronecker_sum_adjacency, factors))
    assert np.max(np.abs(np.sort(composed) - explicit)) <= 1e-8
    # Composing a prefix first, as one factor, gives the same sums to the bit.
    for k in range(1, len(spectra)):
        prefix = ql.Spectrum(np.sort(ql.compose_spectra(spectra[:k]).values)[::-1], None)
        regrouped = ql.compose_spectra([prefix, *spectra[k:]]).values
        assert np.array_equal(np.sort(regrouped), np.sort(composed))


# Eigenvalues with ties, negative values and zeros of both signs.
_EIGENVALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                         st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def descending_factor_rows(draw):
    """Per factor, an (n_samples, dim) array whose rows are sorted descending."""
    n_samples = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    return [np.array([sorted(draw(st.lists(_EIGENVALUES, min_size=dim, max_size=dim)),
                             reverse=True) for _ in range(n_samples)])
            for dim in dims]


@PROPERTY_SETTINGS
@given(factors=descending_factor_rows())
def test_composed_range_is_the_extremes_of_the_explicit_grid(factors):
    grids = [functools.reduce(np.add.outer, [rows[s] for rows in factors]).ravel()
             for s in range(len(factors[0]))]
    values = ql.products.compose_values(factors)
    for row, grid in zip(values, grids):  # bit for bit, signed zeros included
        assert row.tobytes() == grid.tobytes()
    grid = np.concatenate(grids)
    lo, hi = ql.products.composed_range(factors)
    assert (lo, hi) == (grid.min(), grid.max())
    edges = ql.histogram_edges(lo, hi, 7)
    assert edges.tobytes() == np.linspace(grid.min() - 0.5, grid.max() + 0.5, 8).tobytes()


# 64-bit seeds and spawn-key entries around the 32-bit word boundaries.
_WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))
_KEY_ENTRIES = st.one_of(_WORDS, st.integers(2**64, 2**100))


@PROPERTY_SETTINGS
@given(seed=_WORDS, stream_id=_KEY_ENTRIES, path=st.lists(_KEY_ENTRIES, max_size=4))
def test_rng_streams_equal_plain_seed_sequence(seed, stream_id, path):
    root = ql.RngSeed(seed, stream_id)
    spawned = np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
    assert root.derive(*path).seed == int(spawned.generate_state(1, np.uint64)[0])
    plain = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream_id,)))
    assert root.generator().bit_generator.state == plain.state


def _plain_child(parent: ql.RngSeed, path) -> tuple[int, dict]:
    """A child seed by plain SeedSequence, and the PCG64 state of its stream 0."""
    spawned = np.random.SeedSequence(parent.seed, spawn_key=(parent.stream_id, *path))
    seed = int(spawned.generate_state(1, np.uint64)[0])
    return seed, np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).state


_PARENTS = st.builds(ql.RngSeed, _WORDS, _KEY_ENTRIES)
# Entries at and past 2^32 and 2^64 take two and three words, so rows of
# different lengths hash in one batch.
_PATHS = st.lists(st.lists(_KEY_ENTRIES, max_size=4).map(tuple), max_size=5)


@PROPERTY_SETTINGS
@given(parents=st.lists(_PARENTS, max_size=4), paths=_PATHS)
@example(parents=[ql.RngSeed(7)], paths=[(3,)])  # a batch of one
@example(parents=[ql.RngSeed(7), ql.RngSeed(8, 2**40)], paths=[])  # no paths
@example(parents=[ql.RngSeed(2**64 - 1, 5)], paths=[()])  # the empty path
@example(parents=[ql.RngSeed(1), ql.RngSeed(2**63, 2**64)],
         paths=[(2**32 - 1,), (2**32, 0), (2**64 - 1, 1, 2), (2**64,), (2**64 + 5, 2**32), ()])
def test_derive_streams_equal_plain_seed_sequence(parents, paths):
    batch = derive_streams(parents, paths)
    unprimed = derive_streams(parents, paths, primed=False)
    assert len(batch) == len(unprimed) == len(parents)
    for parent, children, bare in zip(parents, batch, unprimed):
        assert len(children) == len(bare) == len(paths)
        for path, child, bare_child in zip(paths, children, bare):
            seed, state = _plain_child(parent, path)
            assert (child.seed, child.stream_id) == (seed, 0)
            assert child.generator().bit_generator.state == state
            assert child == parent.derive(*path) == bare_child
            assert bare_child._state is None
            assert bare_child.generator().bit_generator.state == state


@st.composite
def qlbits(draw):
    """A QL bit of either sign on bases of unequal sizes, cycles or d-regular,
    with or without deleted edges, coupled with p = 0, p = 1 or in between."""
    root = ql.RngSeed(draw(SEEDS))
    bases = []
    for side in range(2):
        if draw(st.booleans()):
            g = ql.cycle_graph(draw(st.integers(3, 7)))
        else:
            n = 2 * draw(st.integers(1, 4))  # even n: every degree below n is feasible
            g = ql.d_regular_random(n, draw(st.integers(1, n - 1)), root.derive(side))
        bases.append(ql.delete_random_edges(g, draw(st.integers(0, min(3, g.n_edges))),
                                            root.derive(2 + side)))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return ql.couple(*bases, p, draw(st.sampled_from([1, -1])), root.derive(4))


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(q=qlbits())
def test_qlbit_matrix_and_connectivity_equal_reference_composite(q):
    n, edges, weights = reference_composite(q)
    a = q.adjacency()
    assert q.n_vertices == n
    assert (a.dtype, a.shape) == (np.float64, (n, n))
    assert a.tobytes() == weighted_adjacency(n, edges, weights).tobytes()
    # The in-place fill equals np.block's assembly bit for bit at both signs:
    # with sign -1 every zero still stays +0.0.
    assert a.tobytes() == reference_qlbit_adjacency(q).tobytes()
    factor = ql.FactorResult((q.basis_1.n_vertices, q.basis_2.n_vertices),
                             (q.basis_1.edges, q.basis_2.edges, q.coupling_edges),
                             ql.eigendecompose(a, want_vectors=False), q.sign)
    assert factor.connected == reference_is_connected(n, edges)


@st.composite
def edge_lists(draw):
    """A vertex count and a valid edge list in any row and endpoint order, maybe with one fault:
    a repeated edge or arbitrary extra endpoints."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    fault = draw(st.sampled_from([None, "repeat", "endpoints"]))
    if fault == "repeat" and edges:
        edges.append(draw(st.sampled_from(edges))[::-1])
    if fault == "endpoints":
        end = st.integers(-2, n + 1)
        edges += draw(st.lists(st.tuples(end, end), min_size=1, max_size=4))
    return n, edges


def _outcome(build):
    try:
        edges = build()
    except InvalidParameterError as exc:
        return "refused", str(exc)
    return edges.dtype, edges.tolist()


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(case=edge_lists())
def test_graph_arrays_and_refusals_equal_lexsort_oracle(case):
    n, edges = case
    assert _outcome(lambda: ql.Graph(n, edges).edges) == _outcome(
        lambda: reference_graph_edges(n, edges))


@st.composite
def small_descriptors(draw):
    """A small valid descriptor of any kind and graph family, with or without
    deletions, disorder, identical factors and shared bases."""
    kind = draw(st.sampled_from(ql.experiments.KINDS))
    if draw(st.booleans()):
        graph, n, d = "cycle", draw(st.integers(3, 6)), None
        edges = n
    else:
        n = 2 * draw(st.integers(2, 4))  # even n: every degree below n is feasible
        d = draw(st.integers(1, n - 1))
        graph, edges = "d-regular", n * d // 2
    qlbit = kind == "qlbit-product"
    return ql.ExperimentDescriptor(
        name="prop", kind=kind, n=n, graph=graph, d=d,
        deletions=draw(st.integers(0, min(2, edges))),
        p=draw(st.floats(0.0, 1.0)) if qlbit else 0.0, sign=draw(st.sampled_from([1, -1])),
        n_factors=1 if kind == "single-graph" else draw(st.integers(1, 3)),
        identical_factors=draw(st.booleans()), shared_base=draw(st.booleans()),
        sigma=draw(st.sampled_from([0.0, 0.5, 2.0])), n_samples=draw(st.integers(1, 9)),
        bins=draw(st.integers(1, 20)), master_seed=draw(SEEDS))


def sample_bytes(sample: ql.SampleResult) -> tuple:
    """Everything a sample holds, arrays as bytes, to compare two samples bitwise."""
    def array(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    factors = []
    for f in sample.factors:
        parts = [array(f.spectrum.eigenvalues),
                 array(f.spectrum.eigenvectors), f.emergent_indices, f.connected]
        if f.qlbit is not None:
            q, e = f.qlbit, f.emergent
            parts += [array(q.basis_1.edges), array(q.basis_2.edges),
                      array(q.coupling_edges), q.sign, e.degraded_isolation,
                      array(np.array([*e.eigenvalues, e.isolation_gap, e.isolation_threshold]))]
        else:
            parts += [f.graph.n_vertices, array(f.graph.edges)]
            assert f.emergent is None
        factors.append(tuple(parts))
    shared = [next(j for j, g in enumerate(sample.factors) if g is f) for f in sample.factors]
    return (sample.index, sample.seed, tuple(factors), shared,
            array(sample.composed.values))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(desc=small_descriptors(), per_chunk=st.integers(1, 4))
def test_chunked_samples_equal_samples_run_alone(desc, per_chunk):
    # Chunks of per_chunk samples, so up to 9 samples cross several chunk
    # boundaries, and ensemble_spectrum's chunks (from sample 1) others still.
    dim = 2 * desc.n if desc.kind == "qlbit-product" else desc.n
    entries = (1 if desc.identical_factors else desc.n_factors) * dim * dim
    alone = [sample_bytes(ql.run_sample(desc, i)) for i in range(desc.n_samples)]
    with mock.patch.object(ql.experiments, "_CHUNK_VALUES", per_chunk * entries):
        chunked = [sample_bytes(sample) for sample in ql.iter_samples(desc)]
        first, histogram, seeds = ql.ensemble_spectrum(desc)
    assert chunked == alone
    assert sample_bytes(first) == alone[0]
    assert seeds == [ql.RngSeed(desc.master_seed).derive(i).seed for i in range(desc.n_samples)]
    expected = one_shot_histogram(desc)
    assert histogram.bin_edges.tobytes() == expected.bin_edges.tobytes()
    assert np.array_equal(histogram.counts, expected.counts)


def expected_stage_calls(desc: ql.ExperimentDescriptor) -> list[tuple[str, tuple[int, ...]]]:
    """Each stage function one sample calls, with the stage path of its stream,
    in call order: per distinct factor, its d-regular bases (factor 0's alone
    with shared bases), deletions, coupling and disorder."""
    sides = (0, 1) if desc.kind == "qlbit-product" else (0,)
    calls = []
    for k in range(1 if desc.identical_factors else desc.n_factors):
        if desc.graph == "d-regular" and (k == 0 or not desc.shared_base):
            calls += [("d_regular_random", (0, k, side)) for side in sides]
        if desc.deletions:
            calls += [("drop_random_edges", (1, k, side)) for side in sides]
        if desc.kind == "qlbit-product":
            calls.append(("cross_edges", (2, k)))
        if desc.sigma:
            calls.append(("apply_diagonal_disorder", (3, k)))
    return calls


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(desc=small_descriptors())
def test_stage_streams_equal_nested_seed_sequence_oracle(desc):
    # Record the seed (the last argument) each stage function receives, and
    # count the streams hashed; each sample hashes its own seed and its stages'.
    received, hashed = [], []
    originals = {name: getattr(ql.experiments, name) for name in
                 ("d_regular_random", "drop_random_edges", "cross_edges",
                  "apply_diagonal_disorder")}

    def recorder(name):
        def record(*args):
            received.append((name, args[-1]))
            return originals[name](*args)
        return record

    def counted(parents, paths, **kwargs):
        hashed.append(len(parents) * len(paths))
        return derive_streams(parents, paths, **kwargs)

    with mock.patch.multiple(ql.experiments, derive_streams=counted,
                             **{name: recorder(name) for name in originals}):
        samples = list(ql.iter_samples(desc))
    expected = expected_stage_calls(desc)
    assert sum(hashed) == desc.n_samples * (1 + len(expected))
    assert len(received) == desc.n_samples * len(expected)
    calls = iter(received)
    for sample in samples:
        assert sample.seed == spawned_seed(desc.master_seed, sample.index)
        for (name, path), (got_name, seed) in zip(expected, calls):
            oracle_seed, oracle_state = stage_stream(desc.master_seed, sample.index, path)
            assert (got_name, seed.seed, seed.stream_id) == (name, oracle_seed, 0)
            assert seed.generator().bit_generator.state == oracle_state


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(desc=small_descriptors(), index=st.integers(0, 3))
def test_edge_row_factors_equal_graph_built_reference(desc, index):
    paths = ql.experiments._stage_paths(desc)

    def streams():
        (row,) = derive_streams([ql.RngSeed(desc.master_seed).derive(index)], paths)
        return dict(zip(paths, row))

    reference = reference_sample_matrices(desc, streams())
    built = ql.experiments._sample_matrices(desc, streams())
    assert len(built) == len(reference)
    for (_, a), (_, _, expected) in zip(built, reference):
        assert (a.dtype, a.shape, a.tobytes()) == (np.float64, expected.shape, expected.tobytes())
    # The pipeline's factors keep their edge rows read-only and build the
    # reference's graphs and QL bits from them on read.
    factors = ql.run_sample(desc, index).factors
    for f, (graph, q, _) in zip(factors, reference):
        assert not any(rows.flags.writeable for rows in f.edges)
        if q is None:
            assert f.qlbit is None
            assert (f.graph.n_vertices, f.graph.edges.tolist()) == (
                graph.n_vertices, graph.edges.tolist())
        else:
            assert f.graph is None
            got = f.qlbit
            assert [(b.n_vertices, b.edges.tolist()) for b in (got.basis_1, got.basis_2)] == [
                (b.n_vertices, b.edges.tolist()) for b in (q.basis_1, q.basis_2)]
            assert (got.coupling_edges.tolist(), got.sign) == (q.coupling_edges.tolist(), q.sign)
