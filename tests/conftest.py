import numpy as np
import pytest

import qlgraph as ql

from oracles import max_residual, orthonormality_defect

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8


def assert_valid_spectrum(a: np.ndarray, s: ql.Spectrum):
    """Spectrum invariants: order, residual, orthonormality, trace."""
    assert s.dim == len(a)
    assert np.all(np.diff(s.eigenvalues) <= 0)
    assert abs(s.eigenvalues.sum() - np.trace(a)) <= 1e-6 * len(a)
    if s.eigenvectors is not None:
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


def composite_spectrum(q: ql.QLBit) -> ql.Spectrum:
    """Full spectrum, with eigenvectors, of the QL bit's adjacency."""
    return ql.eigendecompose(q.adjacency())


@pytest.fixture
def c5():
    return ql.cycle_graph(5)
