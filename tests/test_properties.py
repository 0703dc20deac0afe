"""Property tests of the numerical claims: projection Parseval, spectrum
composition, and the histogram range found without the composed grid, each
held against an explicit oracle, and the spectrum CSV's order, label text
and rows against the stable sort, tuple joins and row-by-row writer they
replaced. Graph's canonical arrays and refusals, and
the seed streams, are held the same way against a two-column lexsort and
against numpy's own SeedSequence: one stream at a time, in batches, and
as each stage function of the pipeline receives it. Edge deletions replayed
from raw stream words are held to numpy's own ``choice``. Samples run in chunks
are held bitwise against the same samples run one at a time, and the
artifacts of small descriptors run through the CLI against the explicit
Kronecker sum of factor matrices the oracles rebuild."""
import contextlib
import csv
import functools
import io
import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlgraph as ql
from qlgraph import cli
from qlgraph.errors import InvalidParameterError
from qlgraph.rng import derive_seeds, derive_streams, stream_states

from oracles import (dense_project_alphas, kronecker_sum_adjacency, one_shot_histogram,
                     range_picks, reference_adjacency, reference_composed_spectrum_csv,
                     reference_composite, reference_couple, reference_d_regular_random,
                     reference_delete_random_edges, reference_descending_order,
                     reference_diagonal_disorder, reference_graph_edges,
                     reference_is_connected, reference_label_texts, reference_pairing_attempt,
                     reference_qlbit_adjacency, reference_sample_matrices, spawned_seed,
                     stage_stream, weighted_adjacency)

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
    alphas, residual = ql.project_alphas(qlbits, vectors)
    norm_sq = float(np.prod([w @ w for w in vectors]))
    tol = 1e-9 * max(1.0, norm_sq)
    total = sum(a * a for a in alphas.values()) + residual**2
    assert abs(total - norm_sq) <= tol
    dense, _ = dense_project_alphas(functools.reduce(np.kron, vectors), qlbits)
    assert alphas.keys() == dense.keys()
    for key, alpha in alphas.items():
        assert abs(alpha - dense[key]) <= tol


@PROPERTY_SETTINGS
@given(factors=st.lists(factor_adjacency(), min_size=2, max_size=3))
def test_compose_spectra_matches_kronecker_sum_and_regroups_exactly(factors):
    spectra = [ql.eigendecompose(a, want_vectors=False)[0] for a in factors]
    composed = ql.compose_spectra(spectra)
    explicit = np.linalg.eigvalsh(functools.reduce(kronecker_sum_adjacency, factors))
    assert np.max(np.abs(np.sort(composed) - explicit)) <= 1e-8
    # Composing a prefix first, as one factor, gives the same sums to the bit.
    for k in range(1, len(spectra)):
        prefix = np.sort(ql.compose_spectra(spectra[:k]))[::-1]
        regrouped = ql.compose_spectra([prefix, *spectra[k:]])
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


# Factor spectra whose composed values tie heavily: C5's (each inner value
# twice), a QL bit's, and short descending lists of a few values, with zeros
# of both signs, one value or none.
C5_VALUES = ql.eigendecompose(ql.adjacency(ql.cycle_graph(5)), want_vectors=False)[0]
QLBIT_VALUES = ql.eigendecompose(
    ql.couple(ql.cycle_graph(5), ql.cycle_graph(5), 0.4, 1, ql.RngSeed(11)).adjacency(),
    want_vectors=False)[0]
_TIED_FACTORS = st.one_of(
    st.sampled_from([C5_VALUES, QLBIT_VALUES]),
    st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.0, -1.0]), max_size=6).map(
        lambda v: np.array(sorted(v, reverse=True))))


def tied_factors(max_states: int):
    """One to six factor spectra from `_TIED_FACTORS`, composing to at most
    ``max_states`` states."""
    return st.lists(_TIED_FACTORS, min_size=1, max_size=6).filter(
        lambda fs: np.prod([f.size for f in fs]) <= max_states)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(factors=tied_factors(20_000))
# C5 powers and identical QL bits on both sides of the writer's 4096-row blocks.
@example(factors=[C5_VALUES] * 5)
@example(factors=[C5_VALUES] * 6)
@example(factors=[QLBIT_VALUES] * 3)
@example(factors=[QLBIT_VALUES] * 4)
@example(factors=[np.array([1.0, 0.0, -0.0, 0.0, -0.0, -1.0]), np.array([-0.0])])
# 1,024 states, 0.0 and -0.0 among them: the unstable argsort mixes their order.
@example(factors=[np.array([1.0, 0.0, -0.0, -1.0])] * 5)
@example(factors=[np.array([0.5])])
@example(factors=[np.array([])])
@example(factors=[C5_VALUES, np.array([])])
def test_descending_order_equals_stable_sort_oracle(factors):
    c = ql.compose_spectra(factors)
    order, expected = ql.products.descending_order(c), reference_descending_order(c)
    assert order.dtype == expected.dtype and order.tobytes() == expected.tobytes()


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(factors=tied_factors(3_000), masks=st.lists(st.integers(0, 2**10 - 1), min_size=6,
                                                   max_size=6),
       block_rows=st.sampled_from([1, 7, 4096]))
@example(factors=[QLBIT_VALUES] * 3, masks=[0b0101010101] * 6, block_rows=7)
@example(factors=[C5_VALUES, np.array([])], masks=[1] * 6, block_rows=7)
def test_spectrum_csv_equals_row_by_row_oracle(factors, masks, block_rows):
    # Factor k's emergent set holds the indices of the set bits of masks[k].
    c = ql.compose_spectra(factors)
    sets = [frozenset(i for i in range(f.size) if mask >> i & 1)
            for f, mask in zip(factors, masks)]
    buf = io.StringIO()
    with mock.patch.object(ql.products, "_BLOCK_ROWS", block_rows):
        ql.write_composed_spectrum_csv(c, [f.size for f in factors], buf, sets)
    # A bool: pytest's diff of two long texts, once per shrink step, takes minutes.
    same = buf.getvalue() == reference_composed_spectrum_csv(c, [f.size for f in factors], sets)
    assert same


@PROPERTY_SETTINGS
@given(dims=st.lists(st.integers(0, 9), max_size=5).filter(lambda d: np.prod(d) <= 5_000))
@example(dims=[])
@example(dims=[3, 4, 5])
def test_label_texts_equal_tuple_join_oracle(dims):
    # The writer labels each half of the factors, N//2 then the rest; the
    # front half of one factor is empty and labels with [""].
    for part in (dims, dims[:len(dims) // 2], dims[len(dims) // 2:]):
        texts, expected = ql.products._label_texts(part), reference_label_texts(part)
        assert texts.dtype == expected.dtype == object
        assert texts.tolist() == expected.tolist()
    assert ql.products._label_texts([]).tolist() == [""]


# 64-bit seeds around the 32-bit word boundaries. A derivation path entry is
# one 32-bit word.
_WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))
_PATH_ENTRIES = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))


@PROPERTY_SETTINGS
@given(seed=_WORDS, path=st.lists(_PATH_ENTRIES, max_size=4))
def test_rng_streams_equal_plain_seed_sequence(seed, path):
    root = ql.RngSeed(seed)
    spawned = np.random.SeedSequence(seed, spawn_key=(0, *path))
    assert root.derive(*path).seed == int(spawned.generate_state(1, np.uint64)[0])
    plain = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,)))
    assert root.generator().bit_generator.state == plain.state


def _plain_child(parent: ql.RngSeed, path) -> tuple[int, dict]:
    """A child seed by plain SeedSequence, and the PCG64 state of its stream 0."""
    spawned = np.random.SeedSequence(parent.seed, spawn_key=(0, *path))
    seed = int(spawned.generate_state(1, np.uint64)[0])
    return seed, np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).state


# Paths of different lengths hash in one batch.
_PATHS = st.lists(st.lists(_PATH_ENTRIES, max_size=4).map(tuple), max_size=5)


@PROPERTY_SETTINGS
@given(seeds=st.lists(_WORDS, max_size=4), paths=_PATHS)
@example(seeds=[7], paths=[(3,)])  # a batch of one
@example(seeds=[7, 2**40], paths=[])  # no paths
@example(seeds=[2**64 - 1], paths=[()])  # the empty path
@example(seeds=[1, 2**63],
         paths=[(2**32 - 1,), (0, 0), (2**32 - 1, 1, 2), (1,), (5, 2**32 - 1), ()])
def test_derive_streams_equal_plain_seed_sequence(seeds, paths):
    children = derive_seeds(seeds, paths)
    assert (children.dtype, children.shape) == (np.uint64, (len(seeds), len(paths)))
    states = stream_states(children)
    assert (states.dtype, states.shape) == (np.uint64, (len(seeds), len(paths), 4))
    batch = derive_streams(children, states)
    assert len(batch) == len(seeds)
    for parent, row, streams in zip(map(ql.RngSeed, seeds), children.tolist(), batch):
        assert len(streams) == len(paths)
        for path, child, stream in zip(paths, row, streams):
            seed, state = _plain_child(parent, path)
            assert child == seed
            assert stream.seed == seed
            assert stream.generator().bit_generator.state == state
            assert stream == parent.derive(*path) == ql.RngSeed(child)
            # The same stream unprimed hashes its state on its own.
            assert ql.RngSeed(child).generator().bit_generator.state == state


# A path with one entry past a word, at any place among entries within one.
_PATHS_PAST_A_WORD = st.tuples(
    st.lists(_PATH_ENTRIES, max_size=2),
    st.one_of(st.sampled_from([2**32, 2**32 + 1, 2**64 - 1, 2**64]), st.integers(2**32, 2**100)),
    st.lists(_PATH_ENTRIES, max_size=2)).map(lambda t: (*t[0], t[1], *t[2]))


@PROPERTY_SETTINGS
@given(seed=_WORDS, paths=_PATHS, bad=_PATHS_PAST_A_WORD)
@example(seed=7, paths=[], bad=(2**32,))
@example(seed=1, paths=[(2**32 - 1,)], bad=(2**32, 0))
@example(seed=1, paths=[], bad=(2**64 - 1, 1, 2))
@example(seed=2**63, paths=[()], bad=(2**64,))
@example(seed=2**63, paths=[(0, 0)], bad=(2**64 + 5, 2**32))
def test_path_entries_past_a_word_refused(seed, paths, bad):
    refused = rf"^derivation path entry must be in \[0, 4294967295\], got {max(bad)}$"
    with pytest.raises(InvalidParameterError, match=refused):
        ql.RngSeed(seed).derive(*bad)
    with pytest.raises(InvalidParameterError, match=refused):
        derive_seeds([seed], [*paths, bad])


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
    assert ql.is_connected(ql.Graph(n, edges)) == reference_is_connected(n, edges)


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
        p=draw(st.floats(0.0, 1.0)) if qlbit else 0.0,
        sign=draw(st.sampled_from([1, -1])) if qlbit else 1,
        n_factors=1 if kind == "single-graph" else draw(st.integers(1, 3)),
        identical_factors=draw(st.booleans()), shared_base=draw(st.booleans()),
        sigma=draw(st.sampled_from([0.0, 0.5, 2.0])), n_samples=draw(st.integers(1, 9)),
        bins=draw(st.integers(1, 20)), master_seed=draw(SEEDS))


def sample_bytes(sample: ql.SampleResult) -> tuple:
    """Everything a sample holds, arrays as bytes, to compare two samples bitwise."""
    def array(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    def factor(f):
        if isinstance(f, ql.QLBit):
            return (array(f.basis_1.edges), array(f.basis_2.edges), array(f.coupling_edges),
                    f.sign)
        return f.n_vertices, array(f.edges)

    shared = [[next(j for j, y in enumerate(items) if y is x) for x in items]
              for items in (sample.factors, sample.spectra)]
    return (sample.index, sample.seed, [factor(f) for f in sample.factors],
            [(array(vals), array(vecs)) for vals, vecs in sample.spectra],
            sample.emergent_index_sets, shared, array(sample.composed))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(desc=small_descriptors(), chunk_values=st.integers(1, 64))
def test_chunked_samples_equal_samples_run_alone(desc, chunk_values):
    # A sample has 9 to 768 matrix entries and 1 to 19 streams, so up to 9
    # samples run in chunks of one or several samples, and batches of one or
    # several chunks end mid-run; ensemble_spectrum's (from sample 1) elsewhere.
    # Each chunk row is bitwise the eigenvalues of run_sample (`eigh`), but a QL
    # sample that is no range pick is solved values-only: its rows are those of
    # `eigendecompose(matrix, want_vectors=False)` of its own factor matrices.
    alone = [ql.run_sample(desc, i) for i in range(desc.n_samples)]
    with mock.patch.object(ql.experiments, "_CHUNK_VALUES", chunk_values):
        chunks = list(ql.experiments._chunk_values(desc, 0, desc.n_samples))
        first, (counts, edges), seeds = ql.ensemble_spectrum(desc)
    assert [i for indices, _, _ in chunks for i in indices] == list(range(desc.n_samples))
    picked = range(desc.n_samples)
    if desc.kind == "qlbit-product":
        picked = sum(range_picks(desc, [indices for indices, _, _ in chunks],
                                 ql.experiments._VALUES_ONLY_TOL), [])
    dim = 2 * desc.n if desc.kind == "qlbit-product" else desc.n
    distinct = 1 if desc.identical_factors else desc.n_factors
    for indices, chunk_seeds, values in chunks:
        assert chunk_seeds.tolist() == [alone[i].seed for i in indices]
        assert [(v.dtype, v.shape) for v in values] == [
            (np.float64, (len(indices), dim))] * distinct
        for j, i in enumerate(indices):
            expected = ([vals for vals, _ in alone[i].spectra[:distinct]] if i in picked
                        else [ql.eigendecompose(a, want_vectors=False)[0]
                              for a in reference_matrices(desc, i)])
            assert [v[j].tobytes() for v in values] == [e.tobytes() for e in expected]
    assert sample_bytes(first) == sample_bytes(alone[0])
    assert seeds == [ql.RngSeed(desc.master_seed).derive(i).seed for i in range(desc.n_samples)]
    expected_counts, expected_edges = one_shot_histogram(desc)
    assert edges.tobytes() == expected_edges.tobytes()
    assert np.array_equal(counts, expected_counts)


def expected_stage_calls(desc: ql.ExperimentDescriptor,
                         ) -> list[tuple[str, list[tuple[int, ...]]]]:
    """Each stage helper one chunk calls, with the stage paths of the streams
    it receives, one stream a sample per path, path by path, in call order: per
    distinct factor, its d-regular bases of every side in one call (factor 0's
    alone with shared bases), deletions, coupling and disorder."""
    sides = (0, 1) if desc.kind == "qlbit-product" else (0,)
    calls = []
    for k in range(1 if desc.identical_factors else desc.n_factors):
        if desc.graph == "d-regular" and (k == 0 or not desc.shared_base):
            calls.append(("_d_regular_rows", [(0, k, side) for side in sides]))
        if desc.deletions:
            calls += [("_deleted_rows", [(1, k, side)]) for side in sides]
        if desc.kind == "qlbit-product":
            calls.append(("_cross_edges", [(2, k)]))
        if desc.sigma:
            calls.append(("_add_disorder", [(3, k)]))
    return calls


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(desc=small_descriptors(), per_chunk=st.integers(1, 4))
def test_stage_streams_equal_nested_seed_sequence_oracle(desc, per_chunk):
    # Record the seeds (the last argument) each stage helper receives, one a
    # sample of its chunk, and count the streams hashed; each sample hashes
    # its own seed and its stages'. Chunks of per_chunk samples.
    received, hashed = [], []
    originals = {name: getattr(ql.experiments, name) for name in
                 ("_d_regular_rows", "_deleted_rows", "_cross_edges", "_add_disorder")}

    def recorder(name):
        def record(*args):
            received.append((name, list(args[-1])))
            return originals[name](*args)
        return record

    def counted(seeds, paths):
        hashed.append(len(seeds) * len(paths))
        return derive_seeds(seeds, paths)

    dim = 2 * desc.n if desc.kind == "qlbit-product" else desc.n
    entries = (1 if desc.identical_factors else desc.n_factors) * dim * dim
    with mock.patch.multiple(ql.experiments, derive_seeds=counted,
                             _CHUNK_VALUES=per_chunk * entries,
                             **{name: recorder(name) for name in originals}):
        chunks = list(ql.experiments._chunk_values(desc, 0, desc.n_samples))
    expected = expected_stage_calls(desc)
    assert sum(hashed) == desc.n_samples * (1 + sum(len(paths) for _, paths in expected))
    assert [seed for _, seeds, _ in chunks for seed in seeds.tolist()] == [
        spawned_seed(desc.master_seed, i) for i in range(desc.n_samples)]
    # Each chunk runs each stage once, in order, on one stream of each of its
    # samples for each of the stage's paths, path by path.
    calls, done = iter(received), 0
    while expected and done < desc.n_samples:
        chunk = range(done, min(done + per_chunk, desc.n_samples))
        for name, paths in expected:
            got_name, seeds = next(calls)
            assert (got_name, len(seeds)) == (name, len(paths) * len(chunk))
            for (path, i), seed in zip(itertools.product(paths, chunk), seeds):
                oracle_seed, oracle_state = stage_stream(desc.master_seed, i, path)
                assert seed.seed == oracle_seed
                assert seed.generator().bit_generator.state == oracle_state
        done = chunk.stop
    assert next(calls, None) is None


def _descriptor(**fields) -> ql.ExperimentDescriptor:
    return ql.ExperimentDescriptor(name="prop", **fields)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(desc=small_descriptors(), first=st.integers(0, 3), count=st.integers(1, 5))
# Sign -1 QL bits with deletions on shared dense bases, with disorder.
@example(desc=_descriptor(kind="qlbit-product", n=6, d=3, deletions=2, p=0.5, sign=-1,
                          n_factors=2, shared_base=True, sigma=0.5), first=1, count=5)
# Cycle bases with deletions, with disorder; sparse d-regular QL bits.
@example(desc=_descriptor(kind="d-regular-product", n=5, graph="cycle", d=None, deletions=2,
                          n_factors=3, sigma=2.0), first=0, count=4)
@example(desc=_descriptor(kind="qlbit-product", n=8, d=2, deletions=1, p=0.3, n_factors=2),
         first=2, count=3)
# Identical factors: QL bits of cycles with deletions, and complete graphs.
@example(desc=_descriptor(kind="qlbit-product", n=4, graph="cycle", d=None, deletions=1,
                          p=0.7, sign=-1, n_factors=3, identical_factors=True), first=0, count=5)
@example(desc=_descriptor(kind="d-regular-product", n=4, d=3, deletions=1, n_factors=2,
                          identical_factors=True, sigma=0.5), first=3, count=2)
def test_edge_row_factors_equal_graph_built_reference(desc, first, count):
    # A chunk of samples first..first+count-1: each sample's slice of the
    # chunk's matrices, and each of its factors, equal to the reference built
    # from that sample's streams alone.
    paths = ql.experiments._stage_paths(desc)
    indices = range(first, first + count)
    seeds = derive_seeds([ql.RngSeed(desc.master_seed).derive(i).seed for i in indices], paths)
    streams = derive_streams(seeds, stream_states(seeds))
    factors, mats = ql.experiments._chunk_matrices(desc, indices, streams)
    dim = 2 * desc.n if desc.kind == "qlbit-product" else desc.n
    distinct = 1 if desc.identical_factors else desc.n_factors
    assert (mats.dtype, mats.shape) == (np.float64, (distinct, count, dim, dim))
    assert len(factors) == distinct
    for j, (i, row) in enumerate(zip(indices, streams)):
        reference = reference_sample_matrices(desc, dict(zip(paths, row)))
        assert len(reference) == distinct
        for a, (rows, cross), (graph, q, expected) in zip(mats, factors, reference):
            assert (a[j].shape, a[j].tobytes()) == (expected.shape, expected.tobytes())
            # The chunk's edge rows of the sample are the reference's graph or QL bit.
            if q is None:
                assert cross is None
                assert [r[j].tolist() for r in rows] == [graph.edges.tolist()]
            else:
                s, u, v = cross
                assert [r[j].tolist() for r in rows] == [b.edges.tolist()
                                                          for b in (q.basis_1, q.basis_2)]
                assert np.stack((u[s == j], v[s == j]), axis=1).tolist() == (
                    q.coupling_edges.tolist())
        # The pipeline's factors are the reference's graphs and QL bits, with
        # read-only edge rows.
        for f, (graph, q, _) in zip(ql.run_sample(desc, i).factors, reference):
            if q is None:
                assert isinstance(f, ql.Graph)
                assert not f.edges.flags.writeable
                assert (f.n_vertices, f.edges.tolist()) == (graph.n_vertices,
                                                            graph.edges.tolist())
            else:
                assert isinstance(f, ql.QLBit)
                assert not any(rows.flags.writeable for rows in (
                    f.basis_1.edges, f.basis_2.edges, f.coupling_edges))
                assert [(b.n_vertices, b.edges.tolist()) for b in (f.basis_1, f.basis_2)] == [
                    (b.n_vertices, b.edges.tolist()) for b in (q.basis_1, q.basis_2)]
                assert (f.coupling_edges.tolist(), f.sign) == (q.coupling_edges.tolist(),
                                                               q.sign)


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(half=st.integers(1, 5), data=st.data(), seed=SEEDS)
def test_public_stage_functions_equal_reference_stages(half, data, seed):
    # Each public stage function, the batch of one of its chunk stage, held
    # bit for bit to the stage `reference_sample_matrices` runs.
    n = 2 * half  # even n: every degree below n is feasible
    d = data.draw(st.integers(1, n - 1), label="d")
    root = ql.RngSeed(seed)

    def same(a, b):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    g = ql.d_regular_random(n, d, root.derive(0))
    assert same(g.edges, reference_d_regular_random(n, d, root.derive(0)).edges)
    count = data.draw(st.integers(0, g.n_edges), label="deletions")
    h = ql.delete_random_edges(g, count, root.derive(1))
    assert same(h.edges, reference_delete_random_edges(g, count, root.derive(1)).edges)
    a = ql.adjacency(h)
    assert same(a, reference_adjacency(h))
    sigma = data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="sigma")
    assert same(ql.apply_diagonal_disorder(a, sigma, root.derive(2)),
                reference_diagonal_disorder(a, sigma, root.derive(2)))
    other = ql.cycle_graph(data.draw(st.integers(3, 7), label="cycle"))
    p = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="p")
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    q = ql.couple(h, other, p, sign, root.derive(3))
    expected = reference_couple(h, other, p, sign, root.derive(3))
    assert same(q.coupling_edges, expected.coupling_edges) and q.sign == expected.sign
    assert same(q.adjacency(), reference_qlbit_adjacency(q))


RAW_DELETIONS = ql.graphs._RAW_DELETIONS
# What `graphs._deleted_rows` takes from numpy to replay ``Generator.choice``.
CHOICE_FACTS = (
    f"numpy {np.__version__}: graphs._deleted_rows replays Generator.choice(m, count, "
    "replace=False) and relies on (1) PCG64's next_uint32 taking the low half of each "
    "64-bit word first, (2) Lemire's bounded draw (x * (j + 1)) >> 32, redrawn while the "
    "low product is below 2**32 % (j + 1), and (3) choice drawing by Floyd's algorithm for "
    "j = m - count .. m - 1 unless m > 10000 and count > m // 50 (a tail shuffle)")


def star_graph(m: int) -> ql.Graph:
    """The star of m edges (0, i): any number of canonical rows."""
    return ql.Graph(m + 1, np.stack((np.zeros(m, dtype=np.int64), np.arange(1, m + 1)), axis=1))


def deletion_streams(seed: int, items: int, primed: bool) -> list[ql.RngSeed]:
    """``items`` streams of one seed: primed by `derive_streams` as the pipeline's, or plain."""
    if not primed:
        return [ql.RngSeed(seed).derive(i) for i in range(items)]
    seeds = derive_seeds([seed], [(1, i, 0) for i in range(items)])
    return derive_streams(seeds, stream_states(seeds))[0]


def assert_deletions_equal_choice(g: ql.Graph, count: int, seeds: list[ql.RngSeed]) -> None:
    """`_deleted_rows` over the batch, and `delete_random_edges` of its first
    item, bit for bit `reference_delete_random_edges`, the ``choice`` oracle."""
    def same(a, b):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    rows = ql.graphs._deleted_rows(np.stack([g.edges] * len(seeds)), count, tuple(seeds))
    for item, seed in enumerate(seeds):
        assert same(rows[item], reference_delete_random_edges(g, count, seed).edges), (
            f"item {item} of m={g.n_edges}, count={count}: {CHOICE_FACTS}")
    assert same(ql.delete_random_edges(g, count, seeds[0]).edges, rows[0]), CHOICE_FACTS


@st.composite
def deletion_cases(draw):
    """(m, count, primed, items, seed): counts at 0, 1, m and either side of the bound."""
    m = draw(st.integers(1, 3 * RAW_DELETIONS) | st.integers(1, 12_000), label="m")
    count = draw(st.sampled_from([0, 1, m, RAW_DELETIONS, RAW_DELETIONS + 1])
                 | st.integers(0, 2 * RAW_DELETIONS), label="count")
    return (m, min(count, m), draw(st.booleans(), label="primed"),
            draw(st.integers(1, 4), label="items"), draw(SEEDS, label="seed"))


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(case=deletion_cases())
@example(case=(10_001, 200, True, 2, 0))  # choice's Floyd draw at m // 50
@example(case=(10_001, 201, True, 2, 0))  # choice's tail shuffle
@example(case=(10_001, RAW_DELETIONS, False, 3, 1))
@example(case=(RAW_DELETIONS, RAW_DELETIONS, True, 4, 2))  # count = m: j = 0 draws nothing
def test_deleted_rows_equal_choice_oracle(case):
    # Every replayed deletion stays in choice's Floyd regime (fact 3).
    assert RAW_DELETIONS <= 10_000 // 50, CHOICE_FACTS
    m, count, primed, items, seed = case
    assert_deletions_equal_choice(star_graph(m), count, deletion_streams(seed, items, primed))


def lemire_rejects(streams: list[ql.RngSeed], m: int, count: int) -> np.ndarray:
    """Per stream, whether numpy's bounded draws for choice(m, count) reject
    one of its first ``count`` 32-bit draws, low halves first (facts 1 and 2)."""
    words = np.array([s.generator().bit_generator.random_raw((count + 1) // 2)
                      for s in streams])
    draws = np.stack((words & 0xFFFF_FFFF, words >> 32), axis=-1).reshape(len(words), -1)
    bound = np.arange(m - count + 1, m + 1, dtype=np.uint64)
    return (draws[:, :count] * bound & 0xFFFF_FFFF < 2**32 % bound).any(1)


def test_deleted_rows_redraw_where_lemire_rejects():
    # A deterministic search for a primed stream on which Lemire rejects a
    # draw (about one in 27,000 at m = 10,001 and count = 32). `_deleted_rows`
    # calls that stream's generator a second time, for `choice`, and no other
    # stream's, and every item of the batch around it equals the oracle.
    m, count, width = 10_001, RAW_DELETIONS, 2**12
    for start in range(0, 2**20, width):
        seeds = derive_seeds([5], [(1, i, 0) for i in range(start, start + width)])
        streams = derive_streams(seeds, stream_states(seeds))[0]
        hits = np.flatnonzero(lemire_rejects(streams[1:-1], m, count))
        if hits.size:
            break
    batch, g = streams[hits[0]:hits[0] + 3], star_graph(m)
    with mock.patch.object(ql.RngSeed, "generator", autospec=True,
                           side_effect=ql.RngSeed.generator) as spy:
        ql.graphs._deleted_rows(np.stack([g.edges] * 3), count, tuple(batch))
    assert [sum(c.args[0] is s for c in spy.call_args_list) for s in batch] == [1, 2, 1], (
        CHOICE_FACTS)
    assert_deletions_equal_choice(g, count, batch)


# (n, d, seed) whose first pairing attempt fails, the stream then restarting.
RESTARTING = {(5, 2, 0), (20, 4, 0), (12, 3, 0)}


@st.composite
def sparse_degree_cases(draw):
    """(n, d, seed) with 2d <= n - 1 and n*d even: the degrees paired directly."""
    d = draw(st.integers(1, 6), label="d")
    n = draw(st.integers(2 * d + 1, 2 * d + 16), label="n")
    return n + n * d % 2, d, draw(SEEDS, label="seed")


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(case=sparse_degree_cases())
@example(case=(4, 1, 0))  # d = 1: one perfect matching
@example(case=(5, 2, 0))
@example(case=(20, 4, 0))  # fig4a's complement degree
@example(case=(12, 3, 0))  # fig3's complement degree
def test_pairing_draws_equal_tuple_set_oracle(case):
    # `_pairing_attempt` and the tuple-set oracle, on two generators of one
    # seed, return the same edges (or both None) at every attempt until one
    # succeeds, and leave equal generator states: every shuffle has the same
    # length.
    n, d, seed = case
    ours, theirs = ql.RngSeed(seed).generator(), ql.RngSeed(seed).generator()
    failed = []
    while not failed or failed[-1]:
        keys = ql.graphs._pairing_attempt(n, d, ours)
        edges = reference_pairing_attempt(n, d, theirs)
        assert (None if keys is None else {divmod(k, n) for k in keys}) == edges
        assert ours.bit_generator.state == theirs.bit_generator.state
        failed.append(keys is None)
    assert failed[0] or case not in RESTARTING


def reference_matrices(desc: ql.ExperimentDescriptor, index: int) -> list[np.ndarray]:
    """Sample ``index``'s matrix of each distinct factor, rebuilt from `Graph`
    and `QLBit` objects on streams spawned by plain SeedSequence."""
    streams = {path: ql.RngSeed(stage_stream(desc.master_seed, index, path)[0])
               for _, paths in expected_stage_calls(desc) for path in paths}
    return [a for _, _, a in reference_sample_matrices(desc, streams)]


def explicit_spectrum(desc: ql.ExperimentDescriptor, index: int) -> np.ndarray:
    """Sample ``index``'s eigenvalues, ascending, by `eigvalsh` of the explicit
    Kronecker sum of its `reference_matrices`."""
    matrices = reference_matrices(desc, index)
    if desc.identical_factors:
        matrices *= desc.n_factors
    return np.linalg.eigvalsh(functools.reduce(kronecker_sum_adjacency, matrices))


def _at_most_512_states(desc: ql.ExperimentDescriptor) -> ql.ExperimentDescriptor:
    """The descriptor with as many of its factors as keep 512 states or fewer."""
    dim = 2 * desc.n if desc.kind == "qlbit-product" else desc.n
    n_factors = desc.n_factors
    while dim**n_factors > 512:
        n_factors -= 1
    return desc.with_overrides(n_factors=n_factors)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(desc=small_descriptors().map(_at_most_512_states))
def test_cli_artifacts_equal_explicit_construction(desc):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "descriptor.json"
        path.write_text(json.dumps(desc.to_json_dict()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path), "--out", out]) == 0
        artifacts = {p.name.removeprefix(f"{desc.name}_"): p.read_text()
                     for p in Path(out).glob(f"{desc.name}_*")}
    metadata = json.loads(artifacts["metadata.json"])
    assert metadata["sample_seeds"] == [spawned_seed(desc.master_seed, i)
                                        for i in range(desc.n_samples)]
    # Every sample's composed values, which the histogram bins, and sample
    # 0's spectrum CSV are the explicit Kronecker sum's eigenvalues.
    for sample in (ql.run_sample(desc, i) for i in range(desc.n_samples)):
        explicit = explicit_spectrum(desc, sample.index)
        assert np.max(np.abs(np.sort(sample.composed) - explicit)) <= 1e-9
    rows = list(csv.DictReader(io.StringIO(artifacts["spectrum.csv"])))
    values = np.sort([float(row["value"]) for row in rows])
    explicit = explicit_spectrum(desc, 0)
    assert values.shape == explicit.shape
    assert np.max(np.abs(values - explicit)) <= 1e-9
    histogram = csv.DictReader(io.StringIO(artifacts["histogram.csv"]))
    assert [int(row["count"]) for row in histogram] == one_shot_histogram(desc)[0].tolist()
    # The projection of sample 0's top product state, of unit factor vectors.
    if desc.kind == "qlbit-product":
        report = json.loads(artifacts["projection.json"])
        assert len(report["alphas"]) == 2**desc.n_factors
        total = sum(a * a for a in report["alphas"].values()) + report["residual"]**2
        assert abs(total - 1.0) <= 1e-9
    else:
        assert "projection.json" not in artifacts
