import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError
from qlgraph.qlbits import IN_PHASE, OUT_OF_PHASE

from conftest import composite_spectrum, make_qlbit


class TestCouple:
    def test_p_zero_block_diagonal(self):
        b = ql.d_regular_random(10, 3, ql.RngSeed(1))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(2))
        assert q.n_coupling == 0
        # Spectrum of the composite is the union of the basis spectra.
        comp = np.linalg.eigvalsh(ql.adjacency(q.composite))
        basis = np.linalg.eigvalsh(ql.adjacency(b))
        assert np.allclose(np.sort(comp), np.sort(np.concatenate([basis, basis])), atol=1e-9)

    def test_p_one_k2_bases_gives_k4(self):
        k2 = ql.Graph(2, [[0, 1]])
        q = ql.couple(k2, k2, 1.0, 1, ql.RngSeed(3))
        assert q.n_coupling == 4
        # Oracle: dense eigendecomposition of the explicit 4x4 complete graph.
        k4 = np.ones((4, 4)) - np.eye(4)
        expected = np.linalg.eigvalsh(k4)
        got = np.linalg.eigvalsh(ql.adjacency(q.composite))
        assert np.allclose(got, expected, atol=1e-12)
        assert abs(got[-1] - 3.0) <= 1e-12

    def test_expected_coupling_count(self):
        # E[n_c] = p * n^2 = 80 at n=20, p=0.2.
        ncs = [make_qlbit(seed=1000 + s).n_coupling for s in range(50)]
        assert abs(np.mean(ncs) - 80.0) <= 0.1 * 80.0

    def test_composite_block_layout(self):
        q = make_qlbit(n=10, d=3, p=0.3, seed=5)
        a = ql.adjacency(q.composite)
        b1 = ql.adjacency(q.basis_1)
        b2 = ql.adjacency(q.basis_2)
        assert np.array_equal(a[:10, :10], b1)
        assert np.array_equal(a[10:, 10:], b2)
        assert (a[:10, 10:] != 0).sum() == q.n_coupling

    def test_negative_sign_weights(self):
        q = make_qlbit(n=10, d=3, p=0.5, seed=6, sign=-1)
        a = ql.adjacency(q.composite)
        assert q.n_coupling > 0
        assert np.all(a[:10, 10:][a[:10, 10:] != 0] == -1.0)

    def test_invalid_p(self):
        k2 = ql.Graph(2, [[0, 1]])
        with pytest.raises(InvalidParameterError):
            ql.couple(k2, k2, 1.5, 1, ql.RngSeed(0))

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
        s = ql.eigendecompose(ql.adjacency(q.composite), want_vectors=False)
        assert abs(s.eigenvalues[0] - pred.predicted_pair[0]) <= 0.15 * pred.predicted_pair[0]
        assert abs(s.eigenvalues[1] - pred.predicted_pair[1]) <= 0.15 * pred.predicted_pair[1]

    def test_unequal_sizes_warn(self):
        b1 = ql.d_regular_random(10, 3, ql.RngSeed(13))
        b2 = ql.d_regular_random(12, 3, ql.RngSeed(14))
        q = ql.couple(b1, b2, 0.2, 1, ql.RngSeed(15))
        with pytest.warns(UserWarning):
            pred = ql.predict_splitting(q)
        assert pred.delta == q.n_coupling / 10


class TestEmergentPair:
    def test_in_and_out_of_phase(self):
        q = make_qlbit(seed=16)
        pair = ql.emergent_pair(q, composite_spectrum(q))
        assert not pair.degraded_isolation
        phases = {st.phase for st in pair.states}
        assert phases == {IN_PHASE, OUT_OF_PHASE}
        assert pair.states[0].phase == IN_PHASE  # sign=+1: in-phase on top

    def test_one_of_each_phase_whenever_isolated(self):
        # Property over seeds and coupling strengths: an isolated pair always
        # classifies into one in-phase and one out-of-phase state.
        for s in range(20):
            q = make_qlbit(p=0.1 if s % 2 else 0.2, seed=5000 + s)
            pair = ql.emergent_pair(q, composite_spectrum(q))
            if not pair.degraded_isolation:
                assert {st.phase for st in pair.states} == {IN_PHASE, OUT_OF_PHASE}

    def test_in_phase_block_means_share_sign(self):
        # Perturbation oracle: two coupled uniform modes mix symmetrically,
        # so the top eigenvector's block means carry the same sign.
        q = make_qlbit(seed=17)
        top = ql.emergent_pair(q, composite_spectrum(q)).states[0]
        assert top.eigenvector[:20].mean() * top.eigenvector[20:].mean() > 0

    def test_negative_sign_flips_ordering(self):
        q = make_qlbit(seed=18, sign=-1)
        pair = ql.emergent_pair(q, composite_spectrum(q))
        assert pair.states[0].phase == OUT_OF_PHASE
        assert pair.states[1].phase == IN_PHASE

    def test_p_zero_degenerate_resolved(self):
        b = ql.d_regular_random(12, 8, ql.RngSeed(19))
        q = ql.couple(b, b, 0.0, 1, ql.RngSeed(20))
        pair = ql.emergent_pair(q, composite_spectrum(q))
        assert abs(pair.states[0].eigenvalue - pair.states[1].eigenvalue) <= 1e-12
        assert pair.states[0].phase == IN_PHASE
        assert pair.states[1].phase == OUT_OF_PHASE
        # Resolved vectors are the block-uniform combinations.
        n = 12
        j0 = np.zeros(24); j0[:n] = 1 / np.sqrt(n)
        j1 = np.zeros(24); j1[n:] = 1 / np.sqrt(n)
        assert np.allclose(pair.states[0].eigenvector, (j0 + j1) / np.sqrt(2), atol=1e-9)
        assert np.allclose(np.abs(pair.states[1].eigenvector), np.abs(j0 - j1) / np.sqrt(2), atol=1e-9)

    def test_degraded_isolation_for_cycle_bases(self):
        # Cycle bases are not expanders: the pair is not isolated.
        q = ql.couple(ql.cycle_graph(20), ql.cycle_graph(20), 0.05, 1, ql.RngSeed(21))
        assert ql.emergent_pair(q, composite_spectrum(q)).degraded_isolation

    def test_residuals_are_eigenpairs(self):
        q = make_qlbit(seed=22)
        a = ql.adjacency(q.composite)
        for st in ql.emergent_pair(q, composite_spectrum(q)).states:
            assert np.max(np.abs(a @ st.eigenvector - st.eigenvalue * st.eigenvector)) <= 1e-8


class TestInvariants:
    def test_block_test_recovers_basis_spectra(self):
        q = make_qlbit(seed=23)
        a = ql.adjacency(q.composite).copy()
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
                vals = np.linalg.eigvalsh(ql.adjacency(q.composite))
                splits.append(vals[-1] - vals[-2])
            means.append(np.mean(splits))
        assert means[0] <= means[1] <= means[2]

    def test_sign_flip_similarity(self):
        # diag(I, -I) conjugation maps the sign=-1 composite to the sign=+1
        # one exactly, so the eigenvalue multisets coincide.
        qp = make_qlbit(seed=24, sign=1)
        qm = make_qlbit(seed=24, sign=-1)
        mp = ql.adjacency(qp.composite)
        mm = ql.adjacency(qm.composite)
        s = np.diag([1.0] * 20 + [-1.0] * 20)
        assert np.array_equal(s @ mm @ s, mp)
        assert np.allclose(np.linalg.eigvalsh(mm), np.linalg.eigvalsh(mp), atol=1e-9)
