import math

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError

import oracles
from oracles import (complete_graph, degrees, fix_sign, graph_from_adjacency,
                     reference_d_regular_random, reference_pairing_attempt)


def cycle_eigenvalues(n):
    """Analytic cycle spectrum 2*cos(2*pi*k/n), the oracle for C_n tests."""
    return np.sort([2 * math.cos(2 * math.pi * k / n) for k in range(n)])[::-1]


class TestGraphType:
    def test_normalizes_and_sorts_edges(self):
        g = ql.Graph(4, [[3, 1], [0, 2]])
        assert g.edges.dtype == np.int64
        assert np.array_equal(g.edges, [[0, 2], [1, 3]])

    def test_default_weight_is_one(self):
        g = ql.Graph(3, [[0, 1], [1, 2]])
        assert not hasattr(g, "weights")
        assert np.array_equal(ql.adjacency(g), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize("edges", [
        [[0, 0]],                          # self-loop
        [[0, 1], [1, 0]],                  # duplicate after normalization
        [[0, 5]],                          # out of range
    ])
    def test_invalid_edges_rejected(self, edges):
        with pytest.raises(InvalidParameterError):
            ql.Graph(3, edges)

    @pytest.mark.parametrize("edges", [[0, 1], [[0, 1, 2]], [[[0, 1]]], np.zeros((2, 3), int)])
    def test_edges_not_in_pairs_rejected(self, edges):
        with pytest.raises(InvalidParameterError, match=r"need \(m, 2\) edges"):
            ql.Graph(3, edges)

    @pytest.mark.parametrize("edges", [
        [[0.5, 1.7], [1.2, 2.9]],          # truncated to [[0, 1], [1, 2]] once
        np.array([[0.0, 1.0]]),            # integral values of a float dtype
        [[True, False]],
        [["0", "1"]],
    ])
    def test_non_integer_endpoints_rejected(self, edges):
        with pytest.raises(InvalidParameterError, match="edge endpoints must be integers"):
            ql.Graph(3, edges)

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty((0, 2), dtype=np.uint8)])
    def test_empty_edge_list_accepted(self, edges):
        g = ql.Graph(3, edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

    def test_any_integer_dtype_accepted(self):
        g = ql.Graph(3, np.array([[2, 1], [0, 1]], dtype=np.uint8))
        assert g.edges.dtype == np.int64
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    def test_nonpositive_vertex_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.Graph(0, [])

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None, np.float64(3.0)])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="n_vertices must be an integer"):
            ql.Graph(n, [[0, 1]])

    def test_vertex_count_past_the_int64_key_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="n_vertices must be in"):
            ql.Graph(ql.graphs.MAX_VERTICES + 1, [[0, 1]])
        assert ql.Graph(ql.graphs.MAX_VERTICES, [[0, ql.graphs.MAX_VERTICES - 1]]).n_edges == 1

    def test_generators_refuse_n_past_max_vertices_before_any_work(self, monkeypatch):
        # At the real bound either generator would allocate tens of GB first.
        monkeypatch.setattr(ql.graphs, "MAX_VERTICES", 10)
        # d_regular_random is given no seed: reading it would raise AttributeError.
        for build in (ql.cycle_graph, lambda n: ql.d_regular_random(n, 2, None)):
            with pytest.raises(InvalidParameterError, match=r"^n must be in \[3, 10\], got 11$"):
                build(11)
        assert ql.cycle_graph(10).n_edges == ql.d_regular_random(10, 2, ql.RngSeed(0)).n_edges

    def test_numpy_integer_vertex_count_accepted(self):
        g = ql.Graph(np.uint64(3), [[0, 1], [1, 2]])
        assert type(g.n_vertices) is int and g.n_vertices == 3
        assert np.array_equal(g.edges, [[0, 1], [1, 2]])

    @pytest.mark.parametrize("n,edges,message", [
        (5, [[4, 4], [3, 1], [2, 2], [0, 1]], "edge (2,2) is a self-loop"),
        (3, [[5, 0], [1, 7], [0, 4], [0, 1]], "edge (0,4) is out of range for n=3"),
        (3, [[2, 1], [-1, 2], [-2, 0]], "edge (-2,0) is out of range for n=3"),
        (3, [[0, 5], [2, 2]], "edge (2,2) is a self-loop"),  # self-loops are checked first
        (4, [[3, 2], [1, 0], [2, 3], [0, 1]], "edge (0,1) is a duplicate"),
        # Checked before any cast to int64, which would wrap it to (-1,0).
        (3, np.array([[0, 2**64 - 1]], dtype=np.uint64),
         "edge (0,18446744073709551615) is out of range for n=3"),
        # Python ints that numpy would hold as float64 or object.
        (3, [[0, 2**63]], "edge (0,9223372036854775808) is out of range for n=3"),
        (3, [[2**64, 1], [-1, 2]], "edge (-1,2) is out of range for n=3"),
        # Rows of different lengths, which numpy refuses with a bare ValueError.
        (3, [[0, 1], [2]], "need (m, 2) edges, got ragged rows"),
    ], ids=["self-loop", "out-of-range", "negative", "self-loop-first", "duplicate", "unsigned",
            "int-list-past-int64", "int-list-past-uint64", "ragged"])
    def test_refusal_names_the_smallest_offending_edge(self, n, edges, message):
        with pytest.raises(InvalidParameterError) as exc:
            ql.Graph(n, edges)
        assert str(exc.value) == message

    def test_canonical_rows_and_a_shuffled_swapped_copy_give_equal_arrays(self):
        # Any order and orientation of the same rows gives the same
        # read-only array, and the rows given stay as they were.
        rows = ql.d_regular_random(20, 15, ql.RngSeed(16)).edges.copy()
        mixed = np.random.default_rng(16).permutation(rows)
        mixed[::2] = mixed[::2, ::-1]
        canonical = ql.graphs.canonical_edges(rows, 20)
        shuffled = ql.graphs.canonical_edges(mixed, 20)
        assert not canonical.flags.writeable and not shuffled.flags.writeable
        assert rows.flags.writeable and canonical.dtype == shuffled.dtype == np.int64
        assert canonical.tobytes() == shuffled.tobytes() == rows.tobytes()
        # Sorted rows with a repeat are refused.
        with pytest.raises(InvalidParameterError, match=r"^edge \(0,1\) is a duplicate$"):
            ql.Graph(3, [[0, 1], [0, 1], [1, 2]])


class TestCycleGraph:
    def test_c5_shape(self, c5):
        assert c5.n_vertices == 5
        assert c5.n_edges == 5
        assert set(degrees(c5).tolist()) == {2}

    def test_triangle(self):
        assert ql.cycle_graph(3).n_edges == 3

    def test_too_small(self):
        with pytest.raises(InvalidParameterError):
            ql.cycle_graph(2)

    @pytest.mark.parametrize("n", ["5", 5.0, True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            ql.cycle_graph(n)

    def test_c5_spectrum_matches_analytic(self, c5):
        vals = np.linalg.eigvalsh(ql.adjacency(c5))[::-1]
        assert np.allclose(vals, cycle_eigenvalues(5), atol=1e-9)


class TestDRegularRandom:
    @pytest.mark.parametrize("n,d", [(12, 8), (20, 15), (10, 3), (16, 4), (7, 6), (24, 5)])
    def test_exact_regularity(self, n, d):
        for s in range(5):
            g = ql.d_regular_random(n, d, ql.RngSeed(100 + s))
            deg = degrees(g)
            assert deg.min() == deg.max() == d
            assert g.n_edges == n * d // 2

    def test_paper_case_12_8(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(0))
        assert g.n_edges == 48

    def test_forced_complete_graph(self):
        g = ql.d_regular_random(6, 5, ql.RngSeed(1))
        assert np.array_equal(g.edges, complete_graph(6).edges)

    def test_paper_case_20_15_top_eigenvalue(self):
        g = ql.d_regular_random(20, 15, ql.RngSeed(2))
        assert g.n_edges == 150
        top = np.linalg.eigvalsh(ql.adjacency(g))[-1]
        assert abs(top - 15.0) <= 1e-9

    def test_odd_nd_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.d_regular_random(7, 3, ql.RngSeed(0))

    @pytest.mark.parametrize("n,d", [(20.0, 15), (4, True), (np.float64(12), 8), (12, "8"),
                                     (12, 8.0)])
    def test_non_integer_n_or_d_rejected(self, n, d):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ql.d_regular_random(n, d, ql.RngSeed(0))

    def test_numpy_integer_n_and_d_accepted(self):
        g = ql.d_regular_random(np.int64(12), np.uint8(8), ql.RngSeed(5))
        assert np.array_equal(g.edges, ql.d_regular_random(12, 8, ql.RngSeed(5)).edges)

    def test_n_not_greater_than_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.d_regular_random(5, 5, ql.RngSeed(0))

    def test_deterministic_in_seed(self):
        a = ql.d_regular_random(16, 5, ql.RngSeed(42).derive(3))
        b = ql.d_regular_random(16, 5, ql.RngSeed(42).derive(3))
        c = ql.d_regular_random(16, 5, ql.RngSeed(42).derive(4))
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(a.edges, c.edges)

    def test_principal_eigenvector_uniform(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(5))
        _, vecs = ql.eigendecompose(ql.adjacency(g))
        v = fix_sign(vecs[:, 0])
        assert np.max(np.abs(v - 1 / math.sqrt(12))) <= 1e-9

    @pytest.mark.parametrize("n,d", [(20, 15), (12, 8), (10, 9), (12, 11), (7, 6), (16, 3)])
    def test_matches_set_difference_oracle(self, n, d):
        root = ql.RngSeed(2024)
        for s in range(100):
            seed = root.derive(n, d, s)
            g, ref = ql.d_regular_random(n, d, seed), reference_d_regular_random(n, d, seed)
            assert np.array_equal(g.edges, ref.edges)

    @pytest.mark.parametrize("n,d", [(20, 15), (12, 8), (16, 3), (30, 4), (7, 6)])
    def test_bitwise_equal_to_tuple_set_pairing_on_500_streams(self, n, d, monkeypatch):
        # The oracle pairs stubs on sets of edge tuples, apart from the
        # package's int keys. (7, 6) is fig4f's 0-regular complement; in every
        # other case some streams fail a first attempt and restart.
        failed = []

        def counted(*args):
            found = reference_pairing_attempt(*args)
            failed.append(found is None)
            return found

        monkeypatch.setattr(oracles, "reference_pairing_attempt", counted)
        root = ql.RngSeed(19)
        for s in range(500):
            seed = root.derive(n, d, s)
            g, ref = ql.d_regular_random(n, d, seed), reference_d_regular_random(n, d, seed)
            assert g.edges.dtype == ref.edges.dtype and g.edges.tobytes() == ref.edges.tobytes()
        assert any(failed) == (n - 1 - d > 0)

    @pytest.mark.parametrize("n,d", [(20, 15), (12, 11), (16, 3), (3, 2)])
    def test_graphs_built_unvalidated_are_canonical(self, n, d):
        # cycle_graph, d_regular_random, delete_random_edges and couple skip
        # the Graph and QLBit edge checks: their edges must be what validation
        # gives, read-only int64 rows. couple still checks its sign. A cycle's
        # rows are validated as the (i, i+1 mod n) list. Each stores an int
        # vertex count, also when given a numpy integer.
        g = ql.d_regular_random(n, d, ql.RngSeed(9).derive(n, d))
        deleted = ql.delete_random_edges(g, 2, ql.RngSeed(9))
        built = [(g, g.edges), (deleted, deleted.edges)] + [
            (ql.cycle_graph(k), [(i, (i + 1) % k) for i in range(k)])
            for k in [*range(3, 65), np.int64(n)]]
        for h, rows in built:
            assert type(h.n_vertices) is int
            assert h.edges.dtype == np.int64 and not h.edges.flags.writeable
            assert h.edges.tobytes() == ql.Graph(h.n_vertices, rows).edges.tobytes()
        for sign in (1, np.int64(-1)):
            q = ql.couple(g, deleted, 0.5, sign, ql.RngSeed(10))
            validated = ql.QLBit(g, deleted, q.coupling_edges, sign)
            cross = q.coupling_edges
            assert cross.dtype == np.int64 and not cross.flags.writeable
            assert cross.tobytes() == validated.coupling_edges.tobytes()
            assert (q.basis_1, q.basis_2, q.sign) == (validated.basis_1, validated.basis_2,
                                                      validated.sign)
            assert type(q.sign) is int
        for sign in (True, 0, 2):
            with pytest.raises(InvalidParameterError, match="sign must be"):
                ql.couple(g, deleted, 0.5, sign, ql.RngSeed(10))

    def test_generation_failure_carries_retry_count(self, monkeypatch):
        import qlgraph.graphs as graphs
        monkeypatch.setattr(graphs, "_pairing_attempt", lambda *a: None)
        with pytest.raises(ql.GenerationFailureError) as exc:
            ql.d_regular_random(16, 4, ql.RngSeed(0))
        assert exc.value.restarts == graphs.DEFAULT_MAX_RESTARTS


class TestDeleteRandomEdges:
    def test_paper_case_44_edges(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(10))
        h = ql.delete_random_edges(g, 4, ql.RngSeed(11))
        assert h.n_edges == 44
        assert g.n_edges == 48  # original untouched

    def test_zero_is_identity(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(10))
        assert np.array_equal(ql.delete_random_edges(g, 0, ql.RngSeed(11)).edges, g.edges)

    def test_handshake_degree_loss(self):
        # 4 deleted edges remove exactly 8 units of total degree.
        g = ql.d_regular_random(12, 8, ql.RngSeed(12))
        h = ql.delete_random_edges(g, 4, ql.RngSeed(13))
        deficits = 8 - degrees(h)
        assert deficits.sum() == 8
        assert np.all(deficits >= 0)

    def test_count_too_large(self):
        g = ql.cycle_graph(5)
        with pytest.raises(InvalidParameterError):
            ql.delete_random_edges(g, 6, ql.RngSeed(0))

    @pytest.mark.parametrize("count", [2.0, 1.5, True, "2", None])
    def test_non_integer_count_rejected(self, count):
        g = ql.d_regular_random(12, 8, ql.RngSeed(10))
        with pytest.raises(InvalidParameterError, match="count must be an integer"):
            ql.delete_random_edges(g, count, ql.RngSeed(11))

    def test_numpy_integer_count_accepted(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(10))
        h = ql.delete_random_edges(g, np.int64(4), ql.RngSeed(11))
        assert np.array_equal(h.edges, ql.delete_random_edges(g, 4, ql.RngSeed(11)).edges)

    def test_deterministic(self):
        g = ql.d_regular_random(12, 8, ql.RngSeed(14))
        h1 = ql.delete_random_edges(g, 4, ql.RngSeed(15))
        h2 = ql.delete_random_edges(g, 4, ql.RngSeed(15))
        assert np.array_equal(h1.edges, h2.edges)


class TestAdjacency:
    def test_k2(self):
        m = ql.adjacency(ql.Graph(2, [[0, 1]]))
        assert np.array_equal(m, [[0, 1], [1, 0]])

    def test_c5_circulant(self, c5):
        m = ql.adjacency(c5)
        for i in range(5):
            for j in range(5):
                expected = 1.0 if (j - i) % 5 in (1, 4) else 0.0
                assert m[i, j] == expected

    def test_negative_weight_symmetric(self):
        k2 = ql.Graph(2, [[0, 1]])
        m = ql.QLBit(k2, k2, [[0, 1]], -1).adjacency()
        assert m[0, 3] == m[3, 0] == -1.0
        assert np.array_equal(m, m.T)

    def test_round_trip(self):
        g = ql.d_regular_random(10, 3, ql.RngSeed(20))
        back = graph_from_adjacency(ql.adjacency(g))
        assert np.array_equal(back.edges, g.edges)

    def test_round_trip_with_weights(self):
        # A signed QL-bit matrix gives back its block topology.
        k2, c3 = ql.Graph(2, [[0, 1]]), ql.cycle_graph(3)
        q = ql.QLBit(k2, c3, [[1, 2], [0, 0]], -1)
        back = graph_from_adjacency(q.adjacency())
        assert np.array_equal(back.edges, [[0, 1], [0, 2], [1, 4], [2, 3], [2, 4], [3, 4]])


class TestDiagonalDisorder:
    def test_sigma_zero_unchanged(self):
        a = ql.adjacency(ql.cycle_graph(6))
        b = ql.apply_diagonal_disorder(a, 0.0, ql.RngSeed(30))
        assert np.array_equal(a, b)

    def test_off_diagonal_untouched_and_symmetric(self):
        a = ql.adjacency(ql.cycle_graph(6))
        b = ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(31))
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(a[off], b[off])
        assert np.array_equal(b, b.T)
        assert np.all(np.diag(b) != 0.0)

    def test_sample_variance_matches_sigma(self):
        # 100 matrices of dim 100: 10,000 draws at sigma=2.0.
        draws = []
        zero = np.zeros((100, 100))
        for k in range(100):
            b = ql.apply_diagonal_disorder(zero, 2.0, ql.RngSeed(32).derive(k))
            draws.append(np.diag(b))
        var = np.concatenate(draws).var()
        assert abs(var - 4.0) <= 0.05 * 4.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(5)), -1.0, ql.RngSeed(0))

    # A narrow numpy float compared with the largest float64 warned of an overflow.
    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf, np.float64(math.inf),
                                       np.float16(math.inf), np.float32(math.nan)])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidParameterError, match="sigma must be finite and non-negative"):
            ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(5)), sigma, ql.RngSeed(0))

    # An int past float range overflowed in the draw, and a bool passed as 1 or 0;
    # None, a str and a complex raised TypeError comparing with 0.
    @pytest.mark.parametrize(
        "sigma", [10**400, -10**400, True, False, np.True_, None, "0.2", 1j],
        ids=["10**400", "-10**400", "True", "False", "np.True_", "None", "str", "1j"])
    def test_sigma_that_is_no_real_float_rejected(self, sigma):
        with pytest.raises(InvalidParameterError, match="sigma must be finite and non-negative"):
            ql.apply_diagonal_disorder(ql.adjacency(ql.cycle_graph(5)), sigma, ql.RngSeed(0))

    def test_int_sigma_draws_as_its_float(self):
        a = ql.adjacency(ql.cycle_graph(5))
        assert np.array_equal(ql.apply_diagonal_disorder(a, 2, ql.RngSeed(35)),
                              ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(35)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_float_sigma_draws_as_its_float(self, dtype):
        # Compared with the largest float64, a narrow sigma cast the bound
        # down to its own precision and warned of an overflow.
        a = ql.adjacency(ql.cycle_graph(5))
        assert np.array_equal(ql.apply_diagonal_disorder(a, dtype(2.0), ql.RngSeed(35)),
                              ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(35)))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.apply_diagonal_disorder(np.zeros((2, 3)), 1.0, ql.RngSeed(0))

    def test_input_not_modified(self):
        a = ql.adjacency(ql.cycle_graph(6))
        ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(34))
        assert np.array_equal(a, ql.adjacency(ql.cycle_graph(6)))

    def test_deterministic(self):
        a = ql.adjacency(ql.cycle_graph(6))
        b1 = ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(33))
        b2 = ql.apply_diagonal_disorder(a, 2.0, ql.RngSeed(33))
        assert np.array_equal(b1, b2)


class TestConnectivity:
    def test_cycle_connected(self, c5):
        assert ql.is_connected(c5)

    def test_two_components(self):
        assert not ql.is_connected(ql.Graph(4, [[0, 1], [2, 3]]))


class TestRngSeed:
    def test_same_stream_reproduces(self):
        a = ql.RngSeed(7).derive(1).generator().random(8)
        b = ql.RngSeed(7).derive(1).generator().random(8)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = ql.RngSeed(7).derive(1).generator().random(8)
        b = ql.RngSeed(7).derive(2).generator().random(8)
        assert not np.array_equal(a, b)

    def test_derive_deterministic(self):
        assert ql.RngSeed(7).derive(3, 1) == ql.RngSeed(7).derive(3, 1)
        assert ql.RngSeed(7).derive(3, 1) != ql.RngSeed(7).derive(1, 3)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.RngSeed(-1)
        with pytest.raises(InvalidParameterError):
            ql.RngSeed(0).derive(-2)

    @pytest.mark.parametrize("seed,entry,path", [
        (3.7, 0, ()), ("7", 0, ()), (True, 0, ()), (None, 0, ()), (7.0, 0, ()),
        (7, 1.5, ()), (7, False, ()),
        (7, 0, (2.5,)), (7, 0, (1, True)), (7, 0, ("1",)), (7, 0, (np.float64(1),)),
    ])
    def test_non_integer_rejected(self, seed, entry, path):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ql.RngSeed(seed).derive(entry, *path)

    def test_numpy_integers_accepted(self):
        root = ql.RngSeed(np.uint64(2**64 - 1))
        assert root == ql.RngSeed(2**64 - 1) and type(root.seed) is int
        a = root.derive(np.int32(2))
        assert a == ql.RngSeed(2**64 - 1).derive(2)
        assert a.derive(np.int64(3), np.uint8(1)) == ql.RngSeed(2**64 - 1).derive(2).derive(3, 1)
        assert np.array_equal(a.generator().random(4),
                              ql.RngSeed(2**64 - 1).derive(2).generator().random(4))

    def test_repr_shows_the_seed_alone(self):
        assert repr(ql.RngSeed(5)) == "RngSeed(seed=5)"

    def test_negative_path_entry_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^derivation path entry must be in \[0, 4294967295\], got -1$"):
            ql.RngSeed(7).derive(1, -1)
