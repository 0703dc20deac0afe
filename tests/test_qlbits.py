import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError

from conftest import composite_spectrum, make_qlbit
from oracles import emergent_states

IN_PHASE, OUT_OF_PHASE = 1, -1


class TestCouple:
    def test_p_zero_block_diagonal(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(1))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(2))
        assert q.n_coupling == 0
        # Spectrum of the composite is the union of the basis spectra.
        comp = np.linalg.eigvalsh(q.adjacency())
        basis = np.linalg.eigvalsh(ql.adjacency(b))
        assert np.allclose(np.sort(comp), np.sort(np.concatenate([basis, basis])), atol=1e-9)

    def test_p_one_k2_bases_gives_k4(self):
        k2 = ql.Graph(2, [[0, 1]])
        q = ql.couple(k2, k2, 1.0, 1, ql.RngSeed(3))
        assert q.n_coupling == 4
        # Oracle: dense eigendecomposition of the explicit 4x4 complete graph.
        k4 = np.ones((4, 4)) - np.eye(4)
        expected = np.linalg.eigvalsh(k4)
        got = np.linalg.eigvalsh(q.adjacency())
        assert np.allclose(got, expected, atol=1e-12)
        assert abs(got[-1] - 3.0) <= 1e-12

    def test_expected_coupling_count(self):
        # E[n_c] = p * n^2 = 80 at n=20, p=0.2.
        ncs = [make_qlbit(seed=1000 + s).n_coupling for s in range(50)]
        assert abs(np.mean(ncs) - 80.0) <= 0.1 * 80.0

    def test_composite_block_layout(self):
        q = make_qlbit(n=10, d=3, p=0.3, seed=5)
        a = q.adjacency()
        b1 = ql.adjacency(q.basis_1)
        b2 = ql.adjacency(q.basis_2)
        assert q.n_vertices == len(a) == 20
        assert np.array_equal(a[:10, :10], b1)
        assert np.array_equal(a[10:, 10:], b2)
        assert (a[:10, 10:] != 0).sum() == q.n_coupling
        assert np.array_equal(np.argwhere(a[:10, 10:]), q.coupling_edges)
        assert np.array_equal(a, a.T)

    def test_negative_sign_weights(self):
        q = make_qlbit(n=10, d=3, p=0.5, seed=6, sign=-1)
        a = q.adjacency()
        assert q.n_coupling > 0
        assert np.all(a[:10, 10:][a[:10, 10:] != 0] == -1.0)

    def test_invalid_p(self):
        k2 = ql.Graph(2, [[0, 1]])
        with pytest.raises(InvalidParameterError):
            ql.couple(k2, k2, 1.5, 1, ql.RngSeed(0))

    # None, a str and a complex raised TypeError comparing with 0.
    @pytest.mark.parametrize("p", [True, False, np.True_, None, "0.2", 1j])
    def test_bool_p_rejected(self, p):
        k2 = ql.Graph(2, [[0, 1]])
        with pytest.raises(InvalidParameterError, match=r"^p must be a real in \[0, 1\], got "):
            ql.couple(k2, k2, p, 1, ql.RngSeed(0))

    def test_invalid_sign(self):
        k2 = ql.Graph(2, [[0, 1]])
        with pytest.raises(InvalidParameterError):
            ql.couple(k2, k2, 0.5, 2, ql.RngSeed(0))

    def test_deterministic(self):
        a, b = make_qlbit(seed=7), make_qlbit(seed=7)
        assert a.coupling_edges.dtype == np.int64
        assert np.array_equal(a.coupling_edges, b.coupling_edges)

    def test_qlbit_invariants_enforced(self):
        k2 = ql.Graph(2, [[0, 1]])
        with pytest.raises(InvalidParameterError):
            ql.QLBit(k2, k2, [[0, 5]], 1)  # not bridging
        with pytest.raises(InvalidParameterError):
            ql.QLBit(k2, k2, [[0, 0], [0, 0]], 1)  # duplicate


class TestQLBitValidation:
    K2 = ql.Graph(2, [[0, 1]])
    C3 = ql.cycle_graph(3)

    @pytest.mark.parametrize("edges", [[[0.5, 1.7]], np.array([[0.0, 1.0]]), [[True, False]],
                                       [["0", "1"]]])
    def test_non_integer_endpoints_refused(self, edges):
        with pytest.raises(InvalidParameterError,
                           match="coupling edge endpoints must be integers"):
            ql.QLBit(self.K2, self.K2, edges, 1)

    @pytest.mark.parametrize("edges", [np.zeros((2, 3), dtype=np.int64), [[0, 1, 1]], [0, 1],
                                       np.zeros((1, 1, 2), dtype=np.int64)])
    def test_edges_not_in_pairs_refused(self, edges):
        with pytest.raises(InvalidParameterError, match=r"need \(m, 2\) coupling edges"):
            ql.QLBit(self.K2, self.K2, edges, 1)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "1", None])
    def test_non_integer_sign_refused(self, sign):
        with pytest.raises(InvalidParameterError, match="sign must be an integer"):
            ql.QLBit(self.K2, self.K2, [[0, 1]], sign)

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sign_other_than_plus_or_minus_one_refused(self, sign):
        with pytest.raises(InvalidParameterError, match=f"sign must be \\+1 or -1, got {sign}"):
            ql.QLBit(self.K2, self.K2, [[0, 1]], sign)

    def test_numpy_integer_sign_accepted(self):
        q = ql.QLBit(self.K2, self.K2, [[0, 1]], np.int8(-1))
        assert type(q.sign) is int and q.sign == -1

    @pytest.mark.parametrize("edges,message", [
        ([[1, 0], [0, 2], [1, 0], [0, 2]], "coupling edge (0,2) is a duplicate"),
        ([[1, 2], [1, 2]], "coupling edge (1,2) is a duplicate"),
        ([[1, 0], [2, 0], [0, 3], [1, -1]], "coupling edge (0,3) does not bridge the blocks"),
        ([[1, 0], [-1, 5]], "coupling edge (-1,5) does not bridge the blocks"),
        (np.array([[0, 2**63]], dtype=np.uint64),
         "coupling edge (0,9223372036854775808) does not bridge the blocks"),
        # Python ints that numpy would hold as float64 or object.
        ([[0, 2**63]], "coupling edge (0,9223372036854775808) does not bridge the blocks"),
        ([[1, 2**64], [1, 0]], "coupling edge (1,18446744073709551616) does not bridge the blocks"),
        # Rows of different lengths, which numpy refuses with a bare ValueError.
        ([[0, 1], [2]], "need (m, 2) coupling edges, got ragged rows"),
    ], ids=["duplicate", "duplicate-last", "outside", "negative", "unsigned",
            "int-list-past-int64", "int-list-past-uint64", "ragged"])
    def test_refusal_names_the_smallest_offending_edge(self, edges, message):
        with pytest.raises(InvalidParameterError) as exc:
            ql.QLBit(self.K2, self.C3, edges, 1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty((0, 2), dtype=np.uint8)])
    def test_no_coupling_accepted(self, edges):
        q = ql.QLBit(self.K2, self.C3, edges, 1)
        assert q.coupling_edges.shape == (0, 2) and q.coupling_edges.dtype == np.int64
        assert q.n_vertices == 5

    def test_edges_are_a_sorted_read_only_copy(self):
        given = np.array([[1, 2], [0, 1]])
        q = ql.QLBit(self.K2, self.C3, given, -1)
        assert given.flags.writeable and not q.coupling_edges.flags.writeable
        given[1] = (0, 0)
        assert q.coupling_edges.tolist() == [[0, 1], [1, 2]]

    def test_graph_adjacency_refuses_a_qlbit(self):
        # A QL bit has no edge list: the graph adjacency cannot drop its sign.
        q = ql.QLBit(self.K2, self.K2, [[0, 1]], -1)
        with pytest.raises(AttributeError):
            ql.adjacency(q)


class TestPredictSplitting:
    def test_delta_arithmetic(self):
        # Handcrafted 80-edge coupling: Delta = 80/20 = 4, pair (19, 11).
        b1 = ql.d_regular_random(20, 15, ql.RngSeed(8))
        b2 = ql.d_regular_random(20, 15, ql.RngSeed(9))
        coupling = [(i, j) for i in range(20) for j in range(4)]
        q = ql.QLBit(b1, b2, coupling, 1)
        pred = ql.predict_splitting(q)
        assert pred.delta == 4.0
        assert abs(pred.d_eff - 15.0) <= 1e-9
        assert abs(pred.predicted_pair[0] - 19.0) <= 1e-8
        assert abs(pred.predicted_pair[1] - 11.0) <= 1e-8
        assert pred.predicted_pair[0] >= pred.predicted_pair[1]

    def test_zero_coupling_degenerate(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(10))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(11))
        pred = ql.predict_splitting(q)
        assert pred.delta == 0.0
        assert pred.predicted_pair[0] == pred.predicted_pair[1]

    def test_measured_pair_near_prediction(self):
        # Random couplings follow the first-order d +- Delta prediction.
        q = make_qlbit(seed=12)
        pred = ql.predict_splitting(q)
        vals, _ = ql.eigendecompose(q.adjacency(), want_vectors=False)
        assert abs(vals[0] - pred.predicted_pair[0]) <= 0.15 * pred.predicted_pair[0]
        assert abs(vals[1] - pred.predicted_pair[1]) <= 0.15 * pred.predicted_pair[1]

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("deletions", [0, 7])
    def test_d_eff_through_the_eigensolver_gate(self, sign, deletions, monkeypatch):
        q = make_qlbit(sign=sign, deletions=deletions, seed=16)
        calls = []
        gate = ql.qlbits.eigendecompose

        def counted(a, **kwargs):
            calls.append(a.shape)
            return gate(a, **kwargs)

        monkeypatch.setattr(ql.qlbits, "eigendecompose", counted)
        pred = ql.predict_splitting(q)
        assert calls == [(20, 20)]
        # Bitwise the top eigenvalue of a direct solve of basis_1 alone.
        assert pred.d_eff == float(np.linalg.eigvalsh(ql.adjacency(q.basis_1))[-1])
        assert (pred.d_eff < 15.0 - 1e-6) == (deletions > 0)

    def test_unequal_sizes_use_first_basis(self):
        b1 = ql.d_regular_random(10, 3, ql.RngSeed(13))
        b2 = ql.d_regular_random(12, 3, ql.RngSeed(14))
        q = ql.couple(b1, b2, 0.2, 1, ql.RngSeed(15))
        pred = ql.predict_splitting(q)
        assert pred.delta == q.n_coupling / 10


class TestEmergentPair:
    def test_in_and_out_of_phase(self):
        q = make_qlbit(seed=16)
        s = composite_spectrum(q)
        assert not ql.emergent_pair(q, s[0]).degraded_isolation
        states = emergent_states(q, s)
        assert {phase for _, _, phase in states} == {IN_PHASE, OUT_OF_PHASE}
        assert states[0][2] == IN_PHASE  # sign=+1: in-phase on top

    def test_one_of_each_phase_whenever_isolated(self):
        # Property over seeds and coupling strengths: an isolated pair always
        # classifies into one in-phase and one out-of-phase state.
        for s in range(20):
            q = make_qlbit(p=0.1 if s % 2 else 0.2, seed=5000 + s)
            spectrum = composite_spectrum(q)
            if not ql.emergent_pair(q, spectrum[0]).degraded_isolation:
                assert ({phase for _, _, phase in emergent_states(q, spectrum)}
                        == {IN_PHASE, OUT_OF_PHASE})

    def test_in_phase_block_means_share_sign(self):
        # Perturbation oracle: two coupled uniform modes mix symmetrically,
        # so the top eigenvector's block means carry the same sign.
        q = make_qlbit(seed=17)
        _, top, _ = emergent_states(q, composite_spectrum(q))[0]
        assert top[:20].mean() * top[20:].mean() > 0

    def test_negative_sign_flips_ordering(self):
        q = make_qlbit(seed=18, sign=-1)
        states = emergent_states(q, composite_spectrum(q))
        assert states[0][2] == OUT_OF_PHASE
        assert states[1][2] == IN_PHASE

    def test_p_zero_degenerate_resolved(self):
        b = ql.d_regular_random(12, 8, ql.RngSeed(19))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(20))
        (lam0, v0, phase0), (lam1, v1, phase1) = emergent_states(q, composite_spectrum(q))
        assert abs(lam0 - lam1) <= 1e-12
        assert phase0 == IN_PHASE
        assert phase1 == OUT_OF_PHASE
        # Resolved vectors are the block-uniform combinations.
        n = 12
        j0 = np.zeros(24); j0[:n] = 1 / np.sqrt(n)
        j1 = np.zeros(24); j1[n:] = 1 / np.sqrt(n)
        assert np.allclose(v0, (j0 + j1) / np.sqrt(2), atol=1e-9)
        assert np.allclose(np.abs(v1), np.abs(j0 - j1) / np.sqrt(2), atol=1e-9)

    def test_degraded_isolation_for_cycle_bases(self):
        # Cycle bases are not expanders: the pair is not isolated.
        q = ql.couple(ql.cycle_graph(20), ql.cycle_graph(20), 0.05, 1, ql.RngSeed(21))
        assert ql.emergent_pair(q, composite_spectrum(q)[0]).degraded_isolation

    def test_residuals_are_eigenpairs(self):
        q = make_qlbit(seed=22)
        a = q.adjacency()
        for lam, v, _ in emergent_states(q, composite_spectrum(q)):
            assert np.max(np.abs(a @ v - lam * v)) <= 1e-8

    @pytest.mark.parametrize("q", [make_qlbit(seed=26), make_qlbit(seed=27, sign=-1),
                                   make_qlbit(p=0.1, seed=28, deletions=4),
                                   ql.couple(ql.cycle_graph(20), ql.cycle_graph(20), 0.05, 1,
                                             ql.RngSeed(29))])
    def test_eigenvalues_alone_suffice(self, q):
        a = q.adjacency()
        vals, _ = ql.eigendecompose(a)
        with_vectors = ql.emergent_pair(q, vals)
        assert with_vectors.eigenvalues == tuple(vals[:2].tolist())
        # The solver without vectors may differ from it in the last ulp.
        alone = ql.emergent_pair(q, ql.eigendecompose(a, want_vectors=False)[0])
        assert alone.degraded_isolation == with_vectors.degraded_isolation
        assert np.allclose(alone.eigenvalues, with_vectors.eigenvalues, rtol=0, atol=1e-12)
        assert abs(alone.isolation_gap - with_vectors.isolation_gap) <= 1e-12
        assert abs(alone.isolation_threshold - with_vectors.isolation_threshold) <= 1e-12

    def test_wrong_or_tiny_spectrum_refused(self):
        q = make_qlbit(n=6, d=3, p=0.3, seed=30)
        with pytest.raises(InvalidParameterError):
            ql.emergent_pair(q, np.arange(11.0)[::-1])
        k1 = ql.Graph(1, np.empty((0, 2), dtype=np.int64))
        tiny = ql.couple(k1, k1, 1.0, 1, ql.RngSeed(31))
        with pytest.raises(InvalidParameterError):
            ql.emergent_pair(tiny, ql.eigendecompose(tiny.adjacency())[0])


class TestInvariants:
    def test_block_test_recovers_basis_spectra(self):
        q = make_qlbit(seed=23)
        a = q.adjacency()
        a[:20, 20:] = 0.0
        a[20:, :20] = 0.0
        got = np.sort(np.linalg.eigvalsh(a))
        expected = np.sort(np.concatenate([
            np.linalg.eigvalsh(ql.adjacency(q.basis_1)),
            np.linalg.eigvalsh(ql.adjacency(q.basis_2)),
        ]))
        assert np.allclose(got, expected, atol=1e-9)

    def test_splitting_monotone_in_p(self):
        means = []
        for p in (0.05, 0.1, 0.2):
            splits = []
            for s in range(50):
                q = make_qlbit(p=p, seed=3000 + s)
                vals = np.linalg.eigvalsh(q.adjacency())
                splits.append(vals[-1] - vals[-2])
            means.append(np.mean(splits))
        assert means[0] <= means[1] <= means[2]

    def test_sign_flip_similarity(self):
        # diag(I, -I) conjugation maps the sign=-1 composite to the sign=+1
        # one exactly, so the eigenvalue multisets coincide.
        qp = make_qlbit(seed=24, sign=1)
        qm = make_qlbit(seed=24, sign=-1)
        mp = qp.adjacency()
        mm = qm.adjacency()
        s = np.diag([1.0] * 20 + [-1.0] * 20)
        assert np.array_equal(s @ mm @ s, mp)
        assert np.allclose(np.linalg.eigvalsh(mm), np.linalg.eigvalsh(mp), atol=1e-9)
