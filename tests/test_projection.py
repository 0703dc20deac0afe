import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError
from qlgraph.qlbits import IN_PHASE, OUT_OF_PHASE

from conftest import composite_spectrum, make_qlbit
from oracles import dense_project_alphas

EXPECTED_PATTERNS = {
    (1, 1): (1, 1, 1, 1),
    (-1, 1): (1, 1, -1, -1),
    (1, -1): (1, -1, 1, -1),
    (-1, -1): (1, -1, -1, 1),
}


def uncoupled_bit(n=12, d=8, seed=1):
    b = ql.d_regular_random(n, d, ql.RngSeed(seed))
    return ql.couple(b, b, 0.0, 1, ql.RngSeed(seed + 1))


class TestJBasis:
    def test_orthogonal_unit_vectors(self):
        j0, j1 = make_qlbit(n=10, d=3, p=0.2, seed=2).block_uniform()
        assert j0 @ j1 == 0.0  # disjoint supports: exactly orthogonal
        assert abs(np.linalg.norm(j0) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(j1) - 1.0) <= 1e-12


class TestBlockSplit:
    def test_localized_vector_leaves_other_block_empty(self):
        # p=0 composite: the basis-1 emergent vector is an eigenvector and
        # lives entirely on block 1.
        q = uncoupled_bit(seed=6)
        v = np.zeros(24)
        v[:12] = 1 / np.sqrt(12)
        a = ql.adjacency(q.composite)
        assert np.allclose(a @ v, 8.0 * v, atol=1e-12)

    def test_in_phase_vector_aligns_with_both_j(self):
        q = make_qlbit(seed=7)
        pair = ql.emergent_pair(q, composite_spectrum(q))
        v = pair.by_phase(IN_PHASE).eigenvector
        j0, j1 = q.block_uniform()
        assert (v @ j0) * (v @ j1) > 0


class TestProjectAlphas:
    def test_uncoupled_product_is_pure_00(self):
        qa, qb = uncoupled_bit(seed=9), uncoupled_bit(seed=11)
        va = np.zeros(24); va[:12] = 1 / np.sqrt(12)
        vb = np.zeros(24); vb[:12] = 1 / np.sqrt(12)
        report = ql.project_alphas([qa, qb], [va, vb])
        assert abs(report.alphas["00"] - 1.0) <= 1e-9
        for key in ("01", "10", "11"):
            assert abs(report.alphas[key]) <= 1e-9
        assert report.residual_norm <= 1e-9

    def test_in_phase_product_alphas_uniform(self):
        qa, qb = uncoupled_bit(seed=13), uncoupled_bit(seed=15)
        va = ql.emergent_pair(qa, composite_spectrum(qa)).by_phase(IN_PHASE).eigenvector
        vb = ql.emergent_pair(qb, composite_spectrum(qb)).by_phase(IN_PHASE).eigenvector
        report = ql.project_alphas([qa, qb], [va, vb])
        for key in ("00", "01", "10", "11"):
            assert abs(report.alphas[key] - 0.5) <= 1e-9

    def test_out_in_sign_pattern(self):
        qa, qb = uncoupled_bit(seed=17), uncoupled_bit(seed=19)
        va = ql.emergent_pair(qa, composite_spectrum(qa)).by_phase(OUT_OF_PHASE).eigenvector
        vb = ql.emergent_pair(qb, composite_spectrum(qb)).by_phase(IN_PHASE).eigenvector
        report = ql.project_alphas([qa, qb], [va, vb])
        pattern = tuple(int(np.sign(report.alphas[k])) for k in ("00", "01", "10", "11"))
        assert pattern in ((1, 1, -1, -1), (-1, -1, 1, 1))

    def test_paths_agree(self):
        qa, qb = make_qlbit(seed=21), make_qlbit(seed=23)
        va = ql.emergent_pair(qa, composite_spectrum(qa)).states[0].eigenvector
        vb = ql.emergent_pair(qb, composite_spectrum(qb)).states[1].eigenvector
        v = np.kron(va, vb)
        factored = ql.project_alphas([qa, qb], [va, vb])
        general = dense_project_alphas(v, [qa, qb])
        for key in factored.alphas:
            assert abs(factored.alphas[key] - general.alphas[key]) <= 1e-8
        assert abs(factored.residual_norm - general.residual_norm) <= 1e-8

    def test_parseval_on_arbitrary_vector(self):
        qa, qb = make_qlbit(n=6, d=3, p=0.3, seed=25), make_qlbit(n=6, d=3, p=0.3, seed=27)
        rng = ql.RngSeed(29).generator()
        wa, wb = rng.normal(size=12), rng.normal(size=12)  # arbitrary, not eigenvectors
        v_any = rng.normal(size=144)
        # The dense reference on a vector that is not a product, and the
        # package on a product of arbitrary per-bit vectors.
        cases = [(v_any, dense_project_alphas(v_any, [qa, qb])),
                 (np.kron(wa, wb), ql.project_alphas([qa, qb], [wa, wb]))]
        jba, jbb = qa.block_uniform(), qb.block_uniform()
        for v, report in cases:
            total = sum(a * a for a in report.alphas.values()) + report.residual_norm**2
            assert abs(total - v @ v) <= 1e-8
            # Independent residual: subtract the J-product components explicitly.
            remainder = v.astype(float).copy()
            for key, alpha in report.alphas.items():
                ja = jba[int(key[0])]
                jb = jbb[int(key[1])]
                remainder -= alpha * np.kron(ja, jb)
            assert abs(np.linalg.norm(remainder) - report.residual_norm) <= 1e-8
        v, report = cases[1]
        dense = dense_project_alphas(v, [qa, qb])
        for key, alpha in report.alphas.items():
            assert abs(alpha - dense.alphas[key]) <= 1e-8

    def test_j_products_exactly_orthogonal(self):
        qa, qb = make_qlbit(n=6, d=3, p=0.3, seed=31), make_qlbit(n=6, d=3, p=0.3, seed=33)
        jba, jbb = qa.block_uniform(), qb.block_uniform()
        vecs = {}
        for ka, ja in (("0", jba[0]), ("1", jba[1])):
            for kb, jb in (("0", jbb[0]), ("1", jbb[1])):
                vecs[ka + kb] = np.kron(ja, jb)
        keys = sorted(vecs)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert vecs[a] @ vecs[b] == 0.0

    def test_three_factor_keys(self):
        bits = [make_qlbit(n=6, d=3, p=0.3, seed=35 + 2 * k) for k in range(3)]
        vectors = [ql.emergent_pair(q, composite_spectrum(q)).states[0].eigenvector for q in bits]
        report = ql.project_alphas(bits, vectors)
        assert sorted(report.alphas) == [format(i, "03b") for i in range(8)]

    def test_input_validation(self):
        q = make_qlbit(n=6, d=3, p=0.3, seed=41)
        with pytest.raises(InvalidParameterError):
            ql.project_alphas([q, q], [np.zeros(12)])  # one vector short
        with pytest.raises(InvalidParameterError):
            ql.project_alphas([q], [np.zeros(5)])  # wrong composite dim
        with pytest.raises(InvalidParameterError):
            ql.project_alphas([], [])


class TestBellStateCheck:
    def test_p_zero_exact(self):
        report = ql.bell_state_check(uncoupled_bit(seed=43), uncoupled_bit(seed=45))
        assert report.all_match
        assert report.degraded_isolation == (False, False)
        for combo in report.combinations:
            assert combo.max_magnitude_deviation <= 1e-9
            assert combo.report.residual_norm <= 1e-9
        patterns = {c.choices: c.sign_pattern for c in report.combinations}
        for choices, pattern in patterns.items():
            expected = EXPECTED_PATTERNS[choices]
            assert pattern in (expected, tuple(-x for x in expected))

    @pytest.mark.parametrize("seed", [47, 53, 59])
    def test_intact_bases_small_p(self, seed):
        report = ql.bell_state_check(make_qlbit(p=0.1, seed=seed),
                                     make_qlbit(p=0.1, seed=seed + 100))
        assert report.all_match
        assert report.degraded_isolation == (False, False)

    def test_deleted_bases_report_deviation(self):
        # No closed-form value exists here: run and record. Deleted edges
        # make the block restrictions non-uniform, so magnitudes drift off
        # 1/2 and residual mass appears.
        report = ql.bell_state_check(make_qlbit(p=0.1, seed=61, deletions=4),
                                     make_qlbit(p=0.1, seed=63, deletions=4))
        assert max(c.max_magnitude_deviation for c in report.combinations) > 1e-4
        assert all(c.report.residual_norm > 1e-4 for c in report.combinations)

    def test_degraded_isolation_carried(self):
        # Cycle bases are not expanders: neither pair is isolated.
        qa, qb = (ql.couple(ql.cycle_graph(20), ql.cycle_graph(20), 0.05, 1, ql.RngSeed(s))
                  for s in (65, 67))
        report = ql.bell_state_check(qa, qb)
        assert report.degraded_isolation == (True, True)

    def test_sign_pattern_tensor_map(self):
        # The combination patterns are tensor products of per-factor
        # patterns (+,+) and (+,-), up to a global sign.
        report = ql.bell_state_check(make_qlbit(seed=69), make_qlbit(seed=71))
        for combo in report.combinations:
            expected = EXPECTED_PATTERNS[combo.choices]
            assert combo.expected_pattern == expected
            assert combo.sign_pattern in (expected, tuple(-x for x in expected))

    def test_eigenvalues_reported(self):
        qa, qb = make_qlbit(seed=73), make_qlbit(seed=75)
        report = ql.bell_state_check(qa, qb)
        top = report.combinations[0]
        assert top.choices == (1, 1)
        sa = ql.eigendecompose(ql.adjacency(qa.composite), want_vectors=False)
        sb = ql.eigendecompose(ql.adjacency(qb.composite), want_vectors=False)
        assert abs(top.eigenvalue - (sa.eigenvalues[0] + sb.eigenvalues[0])) <= 1e-9
