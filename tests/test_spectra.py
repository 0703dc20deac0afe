import math

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError

from conftest import assert_valid_spectrum
from oracles import complete_graph


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
        v = ql.fix_sign(s.eigenvectors[:, 0])
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

    def test_asymmetry_rejected(self, c5):
        a = ql.adjacency(c5)
        a[0, 1] += 1e-6
        with pytest.raises(InvalidParameterError):
            ql.eigendecompose(a)

    def test_trace_matches_disordered(self):
        a = ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(8)), 2.0, ql.RngSeed(41))
        s = ql.eigendecompose(a)
        assert abs(s.eigenvalues.sum() - np.trace(a)) <= 1e-6 * len(a)


class TestSpectrumType:
    def test_order_enforced(self):
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.array([0.0, 1.0]), None)

    def test_length_enforced(self):
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.array([1.0, 0.0]), np.eye(3))
        with pytest.raises(InvalidParameterError):
            ql.Spectrum(np.zeros((2, 2)), None)


class TestSpectralGap:
    def test_c5_gap(self, c5):
        gap = ql.spectral_gap(ql.eigendecompose(ql.adjacency(c5)))
        assert abs(gap - 1.382) <= 1e-3
        assert abs(gap - (2 - 2 * math.cos(2 * math.pi / 5))) <= 1e-12

    def test_complete_graph_gap(self):
        # K_n spectrum is {n-1, -1 x (n-1)}: gap n.
        s = ql.eigendecompose(ql.adjacency(complete_graph(4)))
        assert abs(ql.spectral_gap(s) - 4.0) <= 1e-9

    def test_uncoupled_qlbit_degenerate(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(42))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(43))
        s = ql.eigendecompose(ql.adjacency(q.composite))
        assert ql.spectral_gap(s) <= 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            ql.spectral_gap(ql.Spectrum(np.array([1.0]), None))


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
        assert np.array_equal(ql.fix_sign(v), -v)

    def test_keeps_positive_peak(self):
        v = np.array([0.1, 0.9, -0.2])
        assert ql.fix_sign(v) is v
