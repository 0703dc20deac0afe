import math

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError, NumericalFailureError

from conftest import assert_valid_spectrum
from oracles import complete_graph, fix_sign, spectral_gap


class TestEigendecompose:
    def test_c5_top_eigenvalue(self, c5):
        a = ql.adjacency(c5)
        s = ql.eigendecompose(a)
        assert abs(s.eigenvalues[0] - 2.0) <= 1e-9
        assert_valid_spectrum(a, s)

    def test_zero_matrix(self):
        a = np.zeros((3, 3))
        s = ql.eigendecompose(a)
        assert np.array_equal(s.eigenvalues, np.zeros(3))

    def test_regular_graph_principal_pair(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(40))
        a = ql.adjacency(g)
        s = ql.eigendecompose(a)
        assert abs(s.eigenvalues[0] - 8.0) <= 1e-9
        v = fix_sign(s.eigenvectors[:, 0])
        assert np.max(np.abs(v - 1 / math.sqrt(12))) <= 1e-9
        assert_valid_spectrum(a, s)

    def test_without_vectors(self, c5):
        s = ql.eigendecompose(ql.adjacency(c5), want_vectors=False)
        assert s.eigenvectors is None
        assert s.eigenvalues.shape == (5,)

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(3), np.triu(np.ones((3, 3)))])
    def test_non_square_or_asymmetric_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            ql.eigendecompose(bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_entry_rejected(self, bad, stacked):
        a = np.eye(3)
        a[0, 0] = bad
        if stacked:
            a = np.stack([np.eye(3), a])
        for want_vectors in (True, False):
            with pytest.raises(InvalidParameterError, match="finite"):
                ql.eigendecompose(a, want_vectors=want_vectors)

    def test_asymmetry_rejected(self, c5):
        a = ql.adjacency(c5)
        a[0, 1] += 1e-6
        with pytest.raises(InvalidParameterError):
            ql.eigendecompose(a)

    def test_trace_matches_disordered(self):
        a = ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(8)), 2.0, ql.RngSeed(41))
        s = ql.eigendecompose(a)
        assert abs(s.eigenvalues.sum() - np.trace(a)) <= 1e-6 * len(a)


def qlbit_matrices(count, seed=401):
    """fig4a-sized QL-bit matrices: n=20, d=15, p=0.2, 40x40 each."""
    root = ql.RngSeed(seed)
    return [ql.couple(ql.d_regular_random(20, 15, root.derive(i, 0)),
                      ql.d_regular_random(20, 15, root.derive(i, 1)),
                      0.2, 1, root.derive(i, 2)).adjacency()
            for i in range(count)]


def disordered_factors(count, seed=300):
    """fig3-sized factors: 8-regular on 12 vertices, 4 edges deleted, sigma=2 disorder."""
    root = ql.RngSeed(seed)
    return [ql.apply_diagonal_disorder(
        ql.adjacency(ql.delete_random_edges(ql.d_regular_random(12, 8, root.derive(i, 0)),
                                            4, root.derive(i, 1))), 2.0, root.derive(i, 2))
            for i in range(count)]


class TestStackedEigendecompose:
    @pytest.mark.parametrize("matrices,want_vectors", [
        (qlbit_matrices(12), True),
        (qlbit_matrices(12), False),
        (disordered_factors(40), False),
        (disordered_factors(40), True),
    ], ids=["qlbit-vectors", "qlbit-values", "disordered-values", "disordered-vectors"])
    def test_bitwise_equal_to_one_call_per_matrix(self, matrices, want_vectors):
        stacked = ql.eigendecompose(np.stack(matrices), want_vectors=want_vectors)
        assert isinstance(stacked, list) and len(stacked) == len(matrices)
        for a, s in zip(matrices, stacked):
            alone = ql.eigendecompose(a, want_vectors=want_vectors)
            assert s.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            if want_vectors:
                assert s.eigenvectors.flags.c_contiguous
                assert s.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
            else:
                assert s.eigenvectors is None and alone.eigenvectors is None

    def test_stack_of_one_matches_the_matrix(self, c5):
        a = ql.adjacency(c5)
        (s,) = ql.eigendecompose(a[np.newaxis])
        alone = ql.eigendecompose(a)
        assert isinstance(alone, ql.Spectrum)
        assert s.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert s.eigenvectors.tobytes() == alone.eigenvectors.tobytes()

    @pytest.mark.parametrize("bad", [0, 5, 11])
    def test_one_asymmetric_matrix_refuses_the_stack(self, bad):
        stack = np.stack(disordered_factors(12))
        stack[bad, 3, 7] += 1e-12
        with pytest.raises(InvalidParameterError, match="exactly symmetric"):
            ql.eigendecompose(stack, want_vectors=False)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 3), ()])
    def test_non_square_stack_refused(self, shape):
        with pytest.raises(InvalidParameterError, match="must be square"):
            ql.eigendecompose(np.zeros(shape))

    def test_solver_failure_is_a_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalFailureError, match="failed for dim=40"):
            ql.eigendecompose(np.stack(qlbit_matrices(3)))


class TestSpectrumType:
    def test_order_enforced(self):
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.array([0.0, 1.0]), None)

    def test_length_enforced(self):
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.array([1.0, 0.0]), np.eye(3))
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.zeros((2, 2)), None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalues_rejected(self, bad):
        # NaN passes the descending check; inf would compose into inf sums.
        for values in ([1.0, bad, 0.0], [bad, 0.0], [1.0, bad]):
            with pytest.raises(InvalidParameterError, match="finite"):
                ql.Spectrum(np.array(values), None)


class TestSpectralGap:
    def test_c5_gap(self, c5):
        gap = spectral_gap(ql.eigendecompose(ql.adjacency(c5)))
        assert abs(gap - 1.382) <= 1e-3
        assert abs(gap - (2 - 2 * math.cos(2 * math.pi / 5))) <= 1e-12

    def test_complete_graph_gap(self):
        # K_n spectrum is {n-1, -1 x (n-1)}: gap n.
        s = ql.eigendecompose(ql.adjacency(complete_graph(4)))
        assert abs(spectral_gap(s) - 4.0) <= 1e-9

    def test_uncoupled_qlbit_degenerate(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(42))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(43))
        s = ql.eigendecompose(q.adjacency())
        assert spectral_gap(s) <= 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            spectral_gap(ql.Spectrum(np.array([1.0]), None))


class TestAlonBoppana:
    def test_bound_value_d8(self, c5):
        r = ql.alon_boppana_check(ql.eigendecompose(ql.adjacency(c5)), 8)
        assert abs(r.bound - 2 * math.sqrt(7)) <= 1e-12

    def test_cycle_within_bound(self, c5):
        r = ql.alon_boppana_check(ql.eigendecompose(ql.adjacency(c5)), 2)
        assert r.bound == 2.0
        assert r.lambda_1 <= 2.0
        assert r.satisfied

    def test_d15_ensemble(self):
        violations = []
        for s in range(50):
            g = ql.d_regular_random(20, 15, ql.RngSeed(44, s))
            r = ql.alon_boppana_check(ql.eigendecompose(ql.adjacency(g), want_vectors=False), 15)
            if not r.satisfied:
                violations.append((s, r.lambda_1))
        if violations:
            print(f"Alon-Boppana violations at d=15 (report-only): {violations}")
        assert len(violations) <= 2  # >= 95% of samples within bound + slack

    def test_interval_property_reported(self):
        # Non-principal eigenvalues of n >= 4d graphs should sit near
        # [-2 sqrt(d-1), 2 sqrt(d-1)]; slack 1 at desk sizes, log-only.
        d = 4
        band = 2 * math.sqrt(d - 1) + 1.0
        outside = 0
        for s in range(20):
            g = ql.d_regular_random(16, d, ql.RngSeed(45, s))
            vals = ql.eigendecompose(ql.adjacency(g), want_vectors=False).eigenvalues
            rest = vals[1:]
            if rest.max() > band or rest.min() < -band:
                outside += 1
        if outside:
            print(f"random-band excursions beyond slack: {outside}/20 (report-only)")


class TestFixSign:
    def test_flips_negative_peak(self):
        v = np.array([0.1, -0.9, 0.2])
        assert np.array_equal(fix_sign(v), -v)

    def test_keeps_positive_peak(self):
        v = np.array([0.1, 0.9, -0.2])
        assert fix_sign(v) is v
