import numpy as np
import pytest

import qlgraph as ql

from oracles import max_residual, orthonormality_defect

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8


def assert_valid_spectrum(a: np.ndarray, s: tuple[np.ndarray, np.ndarray | None]):
    """Invariants of an `eigendecompose` pair: order, residual, orthonormality, trace."""
    values, vectors = s
    assert values.shape == (len(a),)
    assert np.all(np.diff(values) <= 0)
    assert abs(values.sum() - np.trace(a)) <= 1e-6 * len(a)
    if vectors is not None:
        assert vectors.shape == a.shape
        assert max_residual(a, s) <= RESIDUAL_TOL
        assert orthonormality_defect(s) <= ORTHO_TOL


def make_qlbit(n=20, d=15, p=0.2, seed=1234, sign=1, deletions=0) -> ql.QLBit:
    root = ql.RngSeed(seed)
    b1 = ql.d_regular_random(n, d, root.derive(0))
    b2 = ql.d_regular_random(n, d, root.derive(1))
    if deletions:
        b1 = ql.delete_random_edges(b1, deletions, root.derive(2))
        b2 = ql.delete_random_edges(b2, deletions, root.derive(3))
    return ql.couple(b1, b2, p, sign, root.derive(4))


def composite_spectrum(q: ql.QLBit) -> tuple[np.ndarray, np.ndarray]:
    """The QL bit adjacency's `eigendecompose` pair, eigenvectors included."""
    return ql.eigendecompose(q.adjacency())


@pytest.fixture
def c5():
    return ql.cycle_graph(5)
