import math

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError, NumericalFailureError

from conftest import ORTHO_TOL, RESIDUAL_TOL, assert_valid_spectrum
from oracles import (alon_boppana_check, complete_graph, fix_sign, max_residual,
                     orthonormality_defect, spectral_gap)


class TestEigendecompose:
    def test_c5_top_eigenvalue(self, c5):
        a = ql.adjacency(c5)
        s = ql.eigendecompose(a)
        assert abs(s[0][0] - 2.0) <= 1e-9
        assert_valid_spectrum(a, s)

    def test_zero_matrix(self):
        a = np.zeros((3, 3))
        vals, _ = ql.eigendecompose(a)
        assert np.array_equal(vals, np.zeros(3))

    def test_regular_graph_principal_pair(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(40))
        a = ql.adjacency(g)
        s = vals, vecs = ql.eigendecompose(a)
        assert abs(vals[0] - 8.0) <= 1e-9
        v = fix_sign(vecs[:, 0])
        assert np.max(np.abs(v - 1 / math.sqrt(12))) <= 1e-9
        assert_valid_spectrum(a, s)

    def test_oracles_detect_a_broken_eigenbasis(self):
        # The checks behind assert_valid_spectrum flag a broken spectrum.
        a = ql.adjacency(ql.d_regular_random(12, 8, ql.RngSeed(40)))
        vals, vecs = ql.eigendecompose(a)
        swapped = vecs[:, [1, 0, *range(2, len(vals))]]
        assert max_residual(a, (vals, swapped)) > RESIDUAL_TOL
        scaled = vecs.copy()
        scaled[:, 0] *= 1.1
        assert orthonormality_defect((vals, scaled)) > ORTHO_TOL

    def test_without_vectors(self, c5):
        vals, vecs = ql.eigendecompose(ql.adjacency(c5), want_vectors=False)
        assert vecs is None
        assert vals.shape == (5,)

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
        vals, _ = ql.eigendecompose(a)
        assert abs(vals.sum() - np.trace(a)) <= 1e-6 * len(a)


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
        vals, vecs = ql.eigendecompose(np.stack(matrices), want_vectors=want_vectors)
        n = len(matrices[0])
        assert (vals.dtype, vals.shape, vals.flags.c_contiguous) == (
            np.float64, (len(matrices), n), True)
        if want_vectors:
            assert (vecs.dtype, vecs.shape, vecs.flags.c_contiguous) == (
                np.float64, (len(matrices), n, n), True)
        for j, a in enumerate(matrices):
            alone_vals, alone_vecs = ql.eigendecompose(a, want_vectors=want_vectors)
            assert vals[j].tobytes() == alone_vals.tobytes()
            if want_vectors:
                assert vecs[j].tobytes() == alone_vecs.tobytes()
            else:
                assert vecs is None and alone_vecs is None

    @pytest.mark.parametrize("want_vectors", [True, False], ids=["vectors", "values"])
    def test_stack_of_one_matches_the_matrix(self, c5, want_vectors):
        # One matrix gives the pair of arrays a stack of one gives as row 0.
        a = ql.adjacency(c5)
        vals, vecs = ql.eigendecompose(a[np.newaxis], want_vectors=want_vectors)
        alone_vals, alone_vecs = ql.eigendecompose(a, want_vectors=want_vectors)
        assert (alone_vals.shape, alone_vals.dtype) == ((5,), np.float64)
        assert alone_vals.tobytes() == vals[0].tobytes()
        if want_vectors:
            assert (alone_vecs.shape, alone_vecs.dtype) == ((5, 5), np.float64)
            assert alone_vecs.tobytes() == vecs[0].tobytes()
        else:
            assert vecs is None and alone_vecs is None

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

    @pytest.mark.parametrize("want_vectors", [True, False], ids=["vectors", "values"])
    @pytest.mark.parametrize("count", [None, 6], ids=["2d", "3d"])
    def test_solver_eigenvalues_checked_once_per_stack(self, monkeypatch, count, want_vectors):
        # The solver's rows are checked by checked_eigenvalues. One NaN
        # row, or one row the solver gives descending (ascending once
        # reversed), refuses the whole call.
        a = np.stack(disordered_factors(count)) if count else disordered_factors(1)[0]
        bad = 4 if count else 0
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

        def nan(vals):
            vals[bad, 3] = math.nan

        def descending(vals):
            vals[bad] = vals[bad, ::-1].copy()

        for spoil, message in ((nan, "eigenvalues must be finite"),
                               (descending, "eigenvalues must be sorted descending")):
            def spoiled_eigh(stack, spoil=spoil):
                vals, vecs = eigh(stack)
                spoil(vals)
                return vals, vecs

            def spoiled_eigvalsh(stack, spoil=spoil):
                vals = eigvalsh(stack)
                spoil(vals)
                return vals

            monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
            monkeypatch.setattr(np.linalg, "eigvalsh", spoiled_eigvalsh)
            with pytest.raises(InvalidParameterError, match=message):
                ql.eigendecompose(a, want_vectors=want_vectors)


def _qlbit():
    return ql.couple(ql.cycle_graph(3), ql.cycle_graph(3), 0.5, 1, ql.RngSeed(0))


# Sites that take eigenvalue arrays from outside: each holds them to the rule
# eigendecompose's own are held to.
_EIGENVALUE_SITES = {
    "compose_spectra": lambda values: ql.compose_spectra([values]),
    "emergent_pair": lambda values: ql.emergent_pair(_qlbit(), values),
}


@pytest.mark.parametrize("site", list(_EIGENVALUE_SITES))
class TestEigenvalueArrays:
    def test_ascending_refused(self, site):
        with pytest.raises(InvalidParameterError, match="^eigenvalues must be sorted descending$"):
            _EIGENVALUE_SITES[site](np.arange(6.0))

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.float64(1.0)], ids=["2d", "0d"])
    def test_not_one_dimensional_refused(self, site, bad):
        with pytest.raises(InvalidParameterError, match="^eigenvalues must be a 1-D array$"):
            _EIGENVALUE_SITES[site](bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, site, bad):
        # NaN passes the descending check; inf would compose into inf sums.
        for at in (0, 3, 5):
            values = np.arange(6.0)[::-1].copy()
            values[at] = bad
            with pytest.raises(InvalidParameterError, match="^eigenvalues must be finite$"):
                _EIGENVALUE_SITES[site](values)


class TestSpectralGap:
    def test_c5_gap(self, c5):
        gap = spectral_gap(ql.eigendecompose(ql.adjacency(c5))[0])
        assert abs(gap - 1.382) <= 1e-3
        assert abs(gap - (2 - 2 * math.cos(2 * math.pi / 5))) <= 1e-12

    def test_complete_graph_gap(self):
        # K_n spectrum is {n-1, -1 x (n-1)}: gap n.
        vals, _ = ql.eigendecompose(ql.adjacency(complete_graph(4)))
        assert abs(spectral_gap(vals) - 4.0) <= 1e-9

    def test_uncoupled_qlbit_degenerate(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(42))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(43))
        vals, _ = ql.eigendecompose(q.adjacency())
        assert spectral_gap(vals) <= 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            spectral_gap(np.array([1.0]))


class TestAlonBoppana:
    def test_bound_value_d8(self, c5):
        r = alon_boppana_check(ql.eigendecompose(ql.adjacency(c5))[0], 8)
        assert abs(r.bound - 2 * math.sqrt(7)) <= 1e-12

    def test_cycle_within_bound(self, c5):
        r = alon_boppana_check(ql.eigendecompose(ql.adjacency(c5))[0], 2)
        assert r.bound == 2.0
        assert r.lambda_1 <= 2.0
        assert r.satisfied

    def test_d15_ensemble(self):
        violations = []
        for s in range(50):
            g = ql.d_regular_random(20, 15, ql.RngSeed(44).derive(s))
            vals, _ = ql.eigendecompose(ql.adjacency(g), want_vectors=False)
            r = alon_boppana_check(vals, 15)
            if not r.satisfied:
                violations.append((s, r.lambda_1))
        if violations:
            print(f"Alon-Boppana violations at d=15 (report-only): {violations}")
        assert len(violations) <= 2  # >= 95% of samples within bound + slack

    def test_interval_property_reported(self):
        # Non-principal eigenvalues of n >= 4d graphs should sit near
        # [-2 sqrt(d-1), 2 sqrt(d-1)]; with slack 1 at desk sizes none of
        # these 20 leaves the band (the largest magnitude is about 3.34).
        d = 4
        band = 2 * math.sqrt(d - 1) + 1.0
        outside = 0
        for s in range(20):
            g = ql.d_regular_random(16, d, ql.RngSeed(45).derive(s))
            vals, _ = ql.eigendecompose(ql.adjacency(g), want_vectors=False)
            rest = vals[1:]
            if rest.max() > band or rest.min() < -band:
                outside += 1
        assert outside == 0


class TestFixSign:
    def test_flips_negative_peak(self):
        v = np.array([0.1, -0.9, 0.2])
        assert np.array_equal(fix_sign(v), -v)

    def test_keeps_positive_peak(self):
        v = np.array([0.1, 0.9, -0.2])
        assert fix_sign(v) is v
