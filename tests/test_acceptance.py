"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.
"""
import hashlib
import math

import numpy as np

import qlgraph as ql
import qlgraph.cli as cli

from conftest import composite_spectrum
from oracles import (alon_boppana_check, bell_patterns, fix_sign, kronecker_sum_adjacency,
                     product_graph, spectral_gap)


class criterion:
    """Context manager printing one PASS/FAIL line per acceptance criterion."""

    def __init__(self, num, text):
        self.num = num
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance {self.num:>2}] {status}  {self.text}")
        return False


def test_criterion_1_c5_spectrum(c5):
    with criterion(1, "C5 spectrum matches 2cos(2pi k/5); gap 1.382 within 1e-3"):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        analytic = np.sort([2 * math.cos(2 * math.pi * k / 5) for k in range(5)])[::-1]
        assert np.max(np.abs(vals - analytic)) <= 1e-6
        assert np.allclose(vals, [2.0, 0.618034, 0.618034, -1.618034, -1.618034], atol=1e-6)
        assert abs(spectral_gap(vals) - 1.382) <= 1e-3


def _random_factor(rng, max_n):
    """A random factor's adjacency matrix."""
    kind = rng.integers(4)
    seed = ql.RngSeed(int(rng.integers(2**32)))
    if kind == 0:
        return ql.adjacency(ql.cycle_graph(int(rng.integers(3, 11))))
    if kind == 1:
        n, d = [(8, 3), (10, 4), (12, 8), (7, 6), (14, 3)][int(rng.integers(5))]
        return ql.adjacency(ql.d_regular_random(n, d, seed))
    if kind == 2:
        g = ql.d_regular_random(12, 8, seed)
        return ql.adjacency(ql.delete_random_edges(g, 4, ql.RngSeed(int(rng.integers(2**32)))))
    bit = ql.couple(ql.d_regular_random(6, 3, seed),
                    ql.d_regular_random(6, 3, ql.RngSeed(int(rng.integers(2**32)))),
                    0.3, -1, ql.RngSeed(int(rng.integers(2**32))))
    return bit.adjacency()  # signed: negative coupling entries


def test_criterion_2_product_oracle_equivalence():
    with criterion(2, "20 random factor pairs: explicit product spectrum == composed sums (1e-8)"):
        rng = ql.RngSeed(20250101).generator()
        checked = 0
        while checked < 20:
            a, b = _random_factor(rng, 20), _random_factor(rng, 20)
            if len(a) * len(b) > 400:
                continue
            explicit = np.linalg.eigvalsh(kronecker_sum_adjacency(a, b))
            composed = ql.compose_spectra([
                ql.eigendecompose(a, want_vectors=False)[0],
                ql.eigendecompose(b, want_vectors=False)[0]]).values
            assert np.max(np.abs(np.sort(explicit) - np.sort(composed))) <= 1e-8
            checked += 1


def test_criterion_3_gap_preservation(c5):
    with criterion(3, "C5 product gaps equal the C5 gap within 1e-9"):
        vals, _ = ql.eigendecompose(ql.adjacency(c5))
        gap = spectral_gap(vals)
        for n_factors in (2, 3):
            composed = np.sort(ql.compose_spectra([vals] * n_factors).values)[::-1]
            assert abs((composed[0] - composed[1]) - gap) <= 1e-9
            explicit = np.linalg.eigvalsh(
                ql.adjacency(product_graph([c5] * n_factors).composite))[::-1]
            assert abs((explicit[0] - explicit[1]) - gap) <= 1e-9


def test_criterion_4_d_regular_emergent_state():
    with criterion(4, "50 graphs (n=20,d=15): lambda0=15, uniform principal vector, "
                      "Alon-Boppana in >=95%"):
        uniform = 1 / math.sqrt(20)
        violations = []
        for s in range(50):
            g = ql.d_regular_random(20, 15, ql.RngSeed(8800, s))
            vals, vecs = ql.eigendecompose(ql.adjacency(g))
            assert abs(vals[0] - 15.0) <= 1e-9
            v = fix_sign(vecs[:, 0])
            assert np.max(np.abs(v - uniform)) <= 1e-9
            report = alon_boppana_check(vals, 15)
            if not report.satisfied:
                violations.append((s, report.lambda_1))
        if violations:
            print(f"  report-only Alon-Boppana excursions: {violations}")
        assert len(violations) <= 2  # 95% of 50


def test_criterion_5_qlbit_splitting():
    with criterion(5, "30 QL bits (n=20,d=15,p=0.2): mean gap within 15% of mean 2*Delta, "
                      "pair isolated"):
        desc = ql.BUNDLED_EXPERIMENTS["fig4a"]
        splits, two_deltas = [], []
        for sample in (ql.run_sample(desc, i) for i in range(30)):
            (q,), ((vals, _),) = sample.factors, sample.spectra
            splits.append(vals[0] - vals[1])
            two_deltas.append(2 * q.n_coupling / 20)
            assert not ql.emergent_pair(q, vals).degraded_isolation
        mean_split, mean_2d = np.mean(splits), np.mean(two_deltas)
        assert abs(mean_split - mean_2d) <= 0.15 * mean_2d


def test_criterion_6_two_qlbit_emergent_structure():
    with criterion(6, "two-QL-bit ensemble: 4 all-emergent labels matching "
                      "{d_a+-Delta_a + d_b+-Delta_b} within 15%"):
        desc = ql.BUNDLED_EXPERIMENTS["fig4c"]
        actual, predicted = [], []
        for sample in (ql.run_sample(desc, i) for i in range(30)):
            counts = ql.emergent_component_counts(sample.composed, sample.emergent_index_sets)
            emergent_vals = sample.composed.values[counts == 2]
            assert emergent_vals.shape == (4,)
            actual.append(np.sort(emergent_vals)[::-1])
            pa, pb = (ql.predict_splitting(q) for q in sample.factors)
            predicted.append(np.sort([
                pa.predicted_pair[0] + pb.predicted_pair[0],
                pa.predicted_pair[0] + pb.predicted_pair[1],
                pa.predicted_pair[1] + pb.predicted_pair[0],
                pa.predicted_pair[1] + pb.predicted_pair[1]])[::-1])
        mean_actual = np.mean(actual, axis=0)
        mean_predicted = np.mean(predicted, axis=0)
        assert np.all(np.abs(mean_actual - mean_predicted) <= 0.15 * np.abs(mean_predicted))


def test_criterion_7_four_qlbit_composed_scale():
    with criterion(7, "four-QL-bit composed spectrum: 38,416 values, 16 all-emergent, "
                      "no product matrix"):
        sample = ql.run_sample(ql.BUNDLED_EXPERIMENTS["fig4f"], 0)
        assert sample.composed.size == 38416
        counts = ql.emergent_component_counts(sample.composed, sample.emergent_index_sets)
        assert int((counts == 4).sum()) == 16
        # Composition only: the largest object anywhere is the value grid.
        assert max(vecs.size for _, vecs in sample.spectra) == 14 * 14


def test_criterion_8_scaling_law():
    with criterion(8, "N in {2,3,4} identical QL bits: lambda0 ~ N(d+Delta) (15%), "
                      "gap ~ 2*Delta (20%)"):
        for n_factors in (2, 3, 4):
            desc = ql.BUNDLED_EXPERIMENTS["fig4a"].with_overrides(
                name=f"scaling{n_factors}", n_factors=n_factors,
                identical_factors=True, master_seed=7100 + n_factors)
            tops, gaps, pred_tops, pred_gaps = [], [], [], []
            for sample in (ql.run_sample(desc, i) for i in range(30)):
                values = sample.composed.values
                top2 = np.partition(values, values.size - 2)[-2:]
                tops.append(top2[1])
                gaps.append(top2[1] - top2[0])
                delta = ql.predict_splitting(sample.factors[0]).delta
                pred_tops.append(n_factors * (15.0 + delta))
                pred_gaps.append(2 * delta)
            assert abs(np.mean(tops) - np.mean(pred_tops)) <= 0.15 * np.mean(pred_tops)
            assert abs(np.mean(gaps) - np.mean(pred_gaps)) <= 0.20 * np.mean(pred_gaps)


def test_criterion_9_projection_sign_patterns():
    with criterion(9, "Bell sign patterns up to global sign; p=0 gives |alpha|=1/2 (1e-9)"):
        expected = {
            (1, 1): (1, 1, 1, 1),
            (-1, 1): (1, 1, -1, -1),
            (1, -1): (1, -1, 1, -1),
            (-1, -1): (1, -1, -1, 1),
        }

        def assert_patterns(qa, qb):
            """Every choice's alpha signs match, up to a global sign; the reports."""
            combos = bell_patterns(qa, qb)
            for choices, (_, report) in combos.items():
                pattern = tuple(int(np.sign(a)) for a in report.alphas.values())
                assert pattern in (expected[choices], tuple(-x for x in expected[choices]))
            return [report for _, report in combos.values()]

        root = ql.RngSeed(9900)
        for trial in range(3):
            bits = []
            for b in range(2):
                g1 = ql.d_regular_random(20, 15, root.derive(trial, b, 0))
                g2 = ql.d_regular_random(20, 15, root.derive(trial, b, 1))
                bits.append(ql.couple(g1, g2, 0.1, 1, root.derive(trial, b, 2)))
            assert not any(ql.emergent_pair(q, composite_spectrum(q)[0]).degraded_isolation
                           for q in bits)
            for report in assert_patterns(*bits):
                assert report.residual_norm >= 0.0
        # p=0: degenerate pairs resolve to exactly uniform magnitudes.
        b1 = ql.d_regular_random(12, 8, root.derive(9, 0))
        b2 = ql.d_regular_random(12, 8, root.derive(9, 1))
        qa = ql.couple(b1, b1, 0.0, 1, root.derive(9, 2))
        qb = ql.couple(b2, b2, 0.0, 1, root.derive(9, 3))
        for report in assert_patterns(qa, qb):
            for alpha in report.alphas.values():
                assert abs(abs(alpha) - 0.5) <= 1e-9


def test_criterion_10_descriptor_determinism(tmp_path, capsys):
    with criterion(10, "every bundled figure descriptor reruns byte-identical"):
        for name in sorted(ql.BUNDLED_EXPERIMENTS):
            hashes = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                assert cli.main(["run", name, "--out", str(out)]) == 0
                hashes.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in out.iterdir()})
            assert hashes[0] == hashes[1], f"{name} artifacts differ between runs"
        capsys.readouterr()  # drop the CLI status JSON from captured output
