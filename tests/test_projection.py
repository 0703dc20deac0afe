import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError

from conftest import composite_spectrum, make_qlbit
from oracles import bell_patterns, dense_project_alphas, emergent_states

EXPECTED_PATTERNS = {
    (1, 1): (1, 1, 1, 1),
    (-1, 1): (1, 1, -1, -1),
    (1, -1): (1, -1, 1, -1),
    (-1, -1): (1, -1, -1, 1),
}


def uncoupled_bit(n=12, d=8, seed=1):
    b = ql.d_regular_random(n, d, ql.RngSeed(seed))
    return ql.couple(b, b, 0.0, 1, ql.RngSeed(seed + 1))


def state_vector(q, phase):
    """The oracle's emergent vector of ``q`` with the given phase."""
    return next(v for _, v, p in emergent_states(q, composite_spectrum(q)) if p == phase)


def sign_pattern(report):
    return tuple(int(np.sign(a)) for a in report.alphas.values())


def magnitude_deviation(report):
    return max(abs(abs(a) - 0.5) for a in report.alphas.values())


def isolation_degraded(*bits):
    return tuple(ql.emergent_pair(q, composite_spectrum(q)[0]).degraded_isolation for q in bits)


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
        a = q.adjacency()
        assert np.allclose(a @ v, 8.0 * v, atol=1e-12)

    def test_in_phase_vector_aligns_with_both_j(self):
        q = make_qlbit(seed=7)
        v = state_vector(q, 1)
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
        va, vb = state_vector(qa, 1), state_vector(qb, 1)
        report = ql.project_alphas([qa, qb], [va, vb])
        for key in ("00", "01", "10", "11"):
            assert abs(report.alphas[key] - 0.5) <= 1e-9

    def test_out_in_sign_pattern(self):
        qa, qb = uncoupled_bit(seed=17), uncoupled_bit(seed=19)
        va, vb = state_vector(qa, -1), state_vector(qb, 1)
        report = ql.project_alphas([qa, qb], [va, vb])
        pattern = tuple(int(np.sign(report.alphas[k])) for k in ("00", "01", "10", "11"))
        assert pattern in ((1, 1, -1, -1), (-1, -1, 1, 1))

    def test_paths_agree(self):
        qa, qb = make_qlbit(seed=21), make_qlbit(seed=23)
        va = emergent_states(qa, composite_spectrum(qa))[0][1]
        vb = emergent_states(qb, composite_spectrum(qb))[1][1]
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
        vectors = [emergent_states(q, composite_spectrum(q))[0][1] for q in bits]
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

    def test_a_factor_that_is_no_qlbit_refused(self):
        q, g = make_qlbit(n=6, d=3, p=0.3, seed=41), ql.cycle_graph(12)
        with pytest.raises(InvalidParameterError, match="^factors must be QL bits, got a Graph$"):
            ql.project_alphas([q, g], [np.ones(12), np.ones(12)])


class TestBellPatterns:
    def test_p_zero_exact(self):
        qa, qb = uncoupled_bit(seed=43), uncoupled_bit(seed=45)
        combos = bell_patterns(qa, qb)
        assert isolation_degraded(qa, qb) == (False, False)
        for choices, (_, report) in combos.items():
            assert magnitude_deviation(report) <= 1e-9
            assert report.residual_norm <= 1e-9
            expected = EXPECTED_PATTERNS[choices]
            assert sign_pattern(report) in (expected, tuple(-x for x in expected))

    @pytest.mark.parametrize("seed", [47, 53, 59])
    def test_intact_bases_small_p(self, seed):
        qa, qb = make_qlbit(p=0.1, seed=seed), make_qlbit(p=0.1, seed=seed + 100)
        for choices, (_, report) in bell_patterns(qa, qb).items():
            expected = EXPECTED_PATTERNS[choices]
            assert sign_pattern(report) in (expected, tuple(-x for x in expected))
        assert isolation_degraded(qa, qb) == (False, False)

    def test_deleted_bases_report_deviation(self):
        # No closed-form value exists here: run and record. Deleted edges
        # make the block restrictions non-uniform, so magnitudes drift off
        # 1/2 and residual mass appears.
        reports = [r for _, r in bell_patterns(make_qlbit(p=0.1, seed=61, deletions=4),
                                               make_qlbit(p=0.1, seed=63, deletions=4)).values()]
        assert max(magnitude_deviation(r) for r in reports) > 1e-4
        assert all(r.residual_norm > 1e-4 for r in reports)

    def test_degraded_isolation_for_cycle_bases(self):
        # Cycle bases are not expanders: neither pair is isolated.
        qa, qb = (ql.couple(ql.cycle_graph(20), ql.cycle_graph(20), 0.05, 1, ql.RngSeed(s))
                  for s in (65, 67))
        assert isolation_degraded(qa, qb) == (True, True)

    def test_sign_pattern_tensor_map(self):
        # The combination patterns are tensor products of per-factor
        # patterns (+,+) and (+,-), up to a global sign.
        combos = bell_patterns(make_qlbit(seed=69), make_qlbit(seed=71))
        for (sa, sb), (_, report) in combos.items():
            expected = EXPECTED_PATTERNS[(sa, sb)]
            assert tuple(np.kron([1, sa], [1, sb]).tolist()) == expected
            assert sign_pattern(report) in (expected, tuple(-x for x in expected))

    def test_eigenvalues_reported(self):
        qa, qb = make_qlbit(seed=73), make_qlbit(seed=75)
        (choices, (value, _)), *_ = bell_patterns(qa, qb).items()
        assert choices == (1, 1)
        sa, _ = ql.eigendecompose(qa.adjacency(), want_vectors=False)
        sb, _ = ql.eigendecompose(qb.adjacency(), want_vectors=False)
        assert abs(value - (sa[0] + sb[0])) <= 1e-9
