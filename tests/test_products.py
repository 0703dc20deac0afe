import io

import numpy as np
import pytest

import qlgraph as ql
import qlgraph.products as products
from qlgraph.errors import InvalidParameterError

from conftest import assert_valid_spectrum, make_qlbit
from oracles import (ProductGraph, cartesian_product, cartesian_product_adjacency, fix_sign,
                     kronecker_sum_adjacency,
                     product_eigenvector, product_graph, reference_composed_spectrum_csv,
                     spectral_gap)


def explicit_eigenvalues(pg: ProductGraph) -> np.ndarray:
    return np.linalg.eigvalsh(ql.adjacency(pg.composite))


def assert_same_rows(text: str, expected: str) -> None:
    # Line lists, not strings: a failing comparison reports quickly at any size.
    assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)


class TestCartesianProduct:
    def test_k2_square_is_c4(self):
        k2 = ql.Graph(2, [[0, 1]])
        pg = cartesian_product(k2, k2)
        assert pg.composite.n_vertices == 4
        assert pg.composite.n_edges == 4
        vals = np.sort(explicit_eigenvalues(pg))
        assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_c5_square(self, c5):
        pg = cartesian_product(c5, c5)
        assert pg.composite.n_vertices == 25
        assert pg.composite.n_edges == 50  # 5*5 + 5*5
        assert abs(explicit_eigenvalues(pg)[-1] - 4.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_count_formula(self, seed):
        g = ql.d_regular_random(8, 3, ql.RngSeed(60, seed))
        h = ql.delete_random_edges(ql.d_regular_random(10, 4, ql.RngSeed(61, seed)), 3,
                                   ql.RngSeed(62, seed))
        pg = cartesian_product(g, h)
        assert pg.composite.n_edges == g.n_edges * h.n_vertices + g.n_vertices * h.n_edges

    def test_index_maps(self, c5):
        pg = cartesian_product(c5, ql.cycle_graph(3))
        assert pg.flat_index((2, 1)) == 7
        assert pg.factor_indices(7) == (2, 1)
        with pytest.raises(InvalidParameterError):
            pg.flat_index((5, 0))
        with pytest.raises(InvalidParameterError):
            pg.factor_indices(15)

    def test_connectivity_iff_factors_connected(self, c5):
        assert ql.is_connected(cartesian_product(c5, c5).composite)
        broken = ql.Graph(4, [[0, 1], [2, 3]])
        assert not ql.is_connected(cartesian_product(broken, c5).composite)
        assert not ql.is_connected(cartesian_product(c5, broken).composite)

    def test_associativity_exact(self, c5):
        k2 = ql.Graph(2, [[0, 1]])
        c3 = ql.cycle_graph(3)
        left = cartesian_product(cartesian_product(c5, k2).composite, c3)
        right = cartesian_product(c5, cartesian_product(k2, c3).composite)
        assert np.array_equal(left.composite.edges, right.composite.edges)
        assert np.allclose(np.sort(explicit_eigenvalues(left)),
                           np.sort(explicit_eigenvalues(right)), atol=1e-8)

    def test_product_graph_flattens_factors(self, c5):
        k2 = ql.Graph(2, [[0, 1]])
        pg = product_graph([c5, k2, c5])
        assert pg.dims == (5, 2, 5)
        assert pg.composite.n_vertices == 50


class TestKroneckerSum:
    def test_matches_explicit_construction(self, c5):
        pg = cartesian_product(c5, c5)
        ks = kronecker_sum_adjacency(ql.adjacency(c5), ql.adjacency(c5))
        assert np.array_equal(ks, ql.adjacency(pg.composite))

    def test_matches_explicit_weighted(self):
        a = make_qlbit(n=4, d=3, p=0.5, seed=63, sign=-1).adjacency()
        b = ql.adjacency(ql.cycle_graph(3))
        assert (a < 0).any()
        for x, y in ((a, b), (b, a), (a, a)):
            assert np.array_equal(kronecker_sum_adjacency(x, y), cartesian_product_adjacency(x, y))

    def test_single_vertex_identity(self, c5):
        one = np.zeros((1, 1))
        a = ql.adjacency(c5)
        assert np.array_equal(kronecker_sum_adjacency(one, a), a)
        assert np.array_equal(kronecker_sum_adjacency(a, one), a)

    def test_disordered_factors_compose(self):
        a = ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(6)), 2.0, ql.RngSeed(64))
        b = ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(8)), 1.0, ql.RngSeed(65))
        ks = kronecker_sum_adjacency(a, b)
        # The disorder lands on the product diagonal as every pairwise sum.
        assert np.array_equal(np.diag(ks),
                              np.add.outer(np.diag(a), np.diag(b)).ravel())
        # Spectrum equals all pairwise sums of the disordered factor spectra.
        sums = np.add.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel()
        assert np.allclose(np.sort(np.linalg.eigvalsh(ks)), np.sort(sums), atol=1e-8)

class TestComposeSpectra:
    def test_single_factor_identity(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        c = ql.compose_spectra([vals])
        assert np.array_equal(c.values, vals)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.compose_spectra([])

    def test_gap_preserved(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        gap = spectral_gap(vals)
        for n_factors in (2, 3):
            c = ql.compose_spectra([vals] * n_factors)
            top = np.sort(c.values)[::-1]
            assert abs((top[0] - top[1]) - gap) <= 1e-9

    def test_values_are_exact_sums(self, c5):
        s5, _ = ql.eigendecompose(ql.adjacency(c5))
        s3, _ = ql.eigendecompose(ql.adjacency(ql.cycle_graph(3)))
        c = ql.compose_spectra([s5, s3])
        for flat, (i, j) in enumerate(zip(*np.unravel_index(np.arange(c.size), c.dims))):
            assert c.values[flat] == s5[i] + s3[j]

    def test_oracle_equivalence(self):
        # Composed sums equal the explicit product spectrum.
        g = ql.d_regular_random(12, 8, ql.RngSeed(66))
        h = ql.delete_random_edges(ql.d_regular_random(14, 3, ql.RngSeed(67)), 2, ql.RngSeed(68))
        c = ql.compose_spectra([
            ql.eigendecompose(ql.adjacency(g))[0], ql.eigendecompose(ql.adjacency(h))[0]])
        explicit = explicit_eigenvalues(cartesian_product(g, h))
        assert np.max(np.abs(np.sort(c.values) - np.sort(explicit))) <= 1e-8

    def test_four_qlbit_factors_compose_without_matrix(self):
        q = make_qlbit(n=7, d=6, p=0.1, seed=69)
        vals, _ = ql.eigendecompose(q.adjacency())
        c = ql.compose_spectra([vals] * 4)
        assert c.size == 14**4 == 38416

    def test_descending_order_stable(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        c = ql.compose_spectra([vals, vals])
        order = c.descending_order()
        vals = c.values[order]
        assert np.all(np.diff(vals) <= 0)
        # Ties resolve by flat index for deterministic artifacts.
        ties = np.where(np.diff(vals) == 0)[0]
        assert all(order[t] < order[t + 1] for t in ties)


class TestProductEigenvector:
    def test_uniform_times_uniform(self):
        g = ql.d_regular_random(8, 3, ql.RngSeed(70))
        h = ql.d_regular_random(6, 3, ql.RngSeed(71))
        spectra = [ql.eigendecompose(ql.adjacency(g)), ql.eigendecompose(ql.adjacency(h))]
        v = fix_sign(product_eigenvector(spectra, (0, 0)))
        assert np.max(np.abs(v - 1 / np.sqrt(48))) <= 1e-9

    def test_residual_against_explicit_matrix(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(72))
        h = ql.delete_random_edges(ql.d_regular_random(40, 3, ql.RngSeed(73)), 5, ql.RngSeed(74))
        sg = ql.eigendecompose(ql.adjacency(g))
        sh = ql.eigendecompose(ql.adjacency(h))
        c = ql.compose_spectra([sg[0], sh[0]])
        a = kronecker_sum_adjacency(ql.adjacency(g), ql.adjacency(h))
        rng = ql.RngSeed(75).generator()
        for _ in range(10):
            labels = (int(rng.integers(12)), int(rng.integers(40)))
            v = product_eigenvector([sg, sh], labels)
            lam = c.values[np.ravel_multi_index(labels, c.dims)]
            assert np.max(np.abs(a @ v - lam * v)) <= 1e-8
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_orthogonality(self):
        g = ql.d_regular_random(10, 3, ql.RngSeed(76))
        s = ql.eigendecompose(ql.adjacency(g))
        va = product_eigenvector([s, s], (0, 3))
        vb = product_eigenvector([s, s], (2, 5))
        vc = product_eigenvector([s, s], (0, 4))
        assert abs(va @ vb) <= 1e-8
        assert abs(va @ vc) <= 1e-8

class TestComposedCsv:
    def test_rows_sorted_with_emergent_counts(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        c = ql.compose_spectra([vals, vals])
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(c, buf, [frozenset({0}), frozenset({0})])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "value,label_1,label_2,n_emergent_factors"
        assert len(lines) == 26
        first = lines[1].split(",")
        assert first[1:] == ["0", "0", "2"]
        values = [float(row.split(",")[0]) for row in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_counts_zero_for_empty_sets(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(ql.compose_spectra([vals, vals]), buf, [frozenset()] * 2)
        rows = buf.getvalue().splitlines()[1:]
        assert len(rows) == 25
        assert all(r.rsplit(",", 1)[1] == "0" for r in rows)

    def test_wrong_set_count_rejected(self, c5):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        c = ql.compose_spectra([vals, vals])
        with pytest.raises(InvalidParameterError):
            ql.write_composed_spectrum_csv(c, io.StringIO(), [frozenset({0})])

    @pytest.mark.parametrize("block_rows", [4096, 7])
    @pytest.mark.parametrize("n_factors", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("with_sets", [False, True])
    def test_matches_reference_writer_on_c5_powers(self, c5, n_factors, with_sets,
                                                  block_rows, monkeypatch):
        # C5 x ... x C5 has many tied values: ties must keep flat order. An odd
        # factor count splits the labels into unequal halves.
        monkeypatch.setattr(products, "_BLOCK_ROWS", block_rows)
        c = ql.compose_spectra([ql.eigendecompose(ql.adjacency(c5))[0]] * n_factors)
        sets = [frozenset({0} if with_sets else ())] * n_factors
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(c, buf, sets)
        assert_same_rows(buf.getvalue(), reference_composed_spectrum_csv(c, sets))

    @pytest.mark.parametrize("block_rows", [4096, 7])
    def test_matches_reference_writer_on_qlbit_product(self, block_rows, monkeypatch):
        monkeypatch.setattr(products, "_BLOCK_ROWS", block_rows)
        vals, _ = ql.eigendecompose(make_qlbit(n=7, d=6, p=0.1, seed=69).adjacency())
        c = ql.compose_spectra([vals, vals, vals])
        sets = [frozenset({0, 1})] * 3
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(c, buf, sets)
        assert_same_rows(buf.getvalue(), reference_composed_spectrum_csv(c, sets))

    @pytest.mark.parametrize("block_rows", [4096, 7])
    def test_matches_reference_writer_on_four_identical_qlbits(self, block_rows, monkeypatch):
        monkeypatch.setattr(products, "_BLOCK_ROWS", block_rows)
        vals, _ = ql.eigendecompose(make_qlbit(n=5, d=4, p=0.2, seed=11).adjacency())
        c = ql.compose_spectra([vals] * 4)
        assert np.unique(c.values).size < c.size // 4  # runs of tied values cross blocks
        sets = [frozenset({0, 1})] * 4
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(c, buf, sets)
        assert_same_rows(buf.getvalue(), reference_composed_spectrum_csv(c, sets))

    SIGNED_ZEROS = [1.0, 0.0, -0.0, 0.0, -0.0, -1.0]

    @pytest.mark.parametrize("block_rows", [4096, 7])
    @pytest.mark.parametrize("factors", [[SIGNED_ZEROS], [SIGNED_ZEROS, [-0.0]],
                                         [[-0.0], SIGNED_ZEROS]],
                             ids=["alone", "times-neg-zero", "neg-zero-times"])
    @pytest.mark.parametrize("with_sets", [False, True])
    def test_signed_zeros_stay_distinct(self, factors, with_sets, block_rows, monkeypatch):
        # 0.0 == -0.0, but their text differs: equal values must not share text.
        monkeypatch.setattr(products, "_BLOCK_ROWS", block_rows)
        c = ql.compose_spectra(factors)
        sets = [frozenset({0} if with_sets else ())] * len(factors)
        buf = io.StringIO()
        ql.write_composed_spectrum_csv(c, buf, sets)
        text = buf.getvalue()
        assert_same_rows(text, reference_composed_spectrum_csv(c, sets))
        assert [row.split(",")[0] for row in text.splitlines()[1:]] == [
            "1.0", "0.0", "-0.0", "0.0", "-0.0", "-1.0"]
