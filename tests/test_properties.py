"""Property tests of the two numerical claims: projection Parseval and
spectrum composition, each held against a dense oracle."""
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qlgraph as ql

from oracles import dense_project_alphas, kronecker_sum_adjacency

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
    explicit = np.linalg.eigvalsh(functools.reduce(kronecker_sum_adjacency, factors).entries)
    assert np.max(np.abs(np.sort(composed) - explicit)) <= 1e-8
    # Composing a prefix first, as one factor, gives the same sums to the bit.
    for k in range(1, len(spectra)):
        prefix = ql.Spectrum(np.sort(ql.compose_spectra(spectra[:k]).values)[::-1], None)
        regrouped = ql.compose_spectra([prefix, *spectra[k:]]).values
        assert np.array_equal(np.sort(regrouped), np.sort(composed))
