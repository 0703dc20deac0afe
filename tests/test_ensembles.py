import math
import tracemalloc

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.ensembles import EMERGENT, HYBRID, RANDOM, state_kinds
from qlgraph.errors import InvalidParameterError

from oracles import one_shot_histogram, reference_composite, reference_is_connected


def small_qlbit_descriptor(**overrides):
    base = dict(name="t-qlbit", kind="qlbit-product", n=8, d=5, p=0.2,
                n_factors=2, n_samples=3, bins=40, master_seed=9000)
    base.update(overrides)
    return ql.ExperimentDescriptor(**base)


class TestClassifyStates:
    """A state's class is state_kinds(N)[k], k from emergent_component_counts."""

    def setup_method(self):
        s = ql.eigendecompose(ql.adjacency(ql.cycle_graph(4)), want_vectors=False)
        self.composed = ql.compose_spectra([s, s, s])

    def kinds(self, emergent_indices):
        counts = ql.emergent_component_counts(self.composed, emergent_indices)
        assert counts.shape == (self.composed.size,) and counts.dtype == np.int64
        return counts, state_kinds(self.composed.n_factors)[counts]

    def test_labels_by_component_membership(self):
        counts, kinds = self.kinds([{0}, {0}, {0}])
        def flat(labels):
            return np.ravel_multi_index(labels, self.composed.dims)

        assert kinds[flat((0, 0, 0))] == EMERGENT
        assert (counts[flat((0, 2, 3))], kinds[flat((0, 2, 3))]) == (1, f"{HYBRID}(1)")
        assert (counts[flat((0, 0, 3))], kinds[flat((0, 0, 3))]) == (2, f"{HYBRID}(2)")
        assert kinds[flat((1, 2, 3))] == RANDOM

    def test_partition_is_exhaustive(self):
        _, kinds = self.kinds([{0}, {0}, {0}])
        names, counts = np.unique(kinds, return_counts=True)
        counts = dict(zip(names.tolist(), counts.tolist()))
        assert sum(counts.values()) == self.composed.size == 64
        assert counts[EMERGENT] == 1
        # one or two emergent components
        assert counts[f"{HYBRID}(1)"] + counts[f"{HYBRID}(2)"] == 3 * 3 + 3 * 9
        assert counts[RANDOM] == 27

    def test_qlbit_factors_give_2_to_n_emergent(self):
        _, kinds = self.kinds([{0, 1}] * 3)
        assert np.count_nonzero(kinds == EMERGENT) == 2**3

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.emergent_component_counts(self.composed, [{0}, {9}, {0}])
        with pytest.raises(InvalidParameterError):
            ql.emergent_component_counts(self.composed, [{0}, {0}])

    @pytest.mark.parametrize("index", [0.5, 1.0, "1"])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="emergent index must be an integer"):
            ql.emergent_component_counts(self.composed, [{0}, {index}, {0}])


class TestHistogram:
    def test_counts_cover_all_values(self):
        values = ql.RngSeed(1).generator().normal(size=500)
        edges = ql.histogram_edges(values.min(), values.max(), 20)
        counts = ql.histogram_from_values(values, edges)
        assert counts.sum() == 500
        assert edges.shape == (21,)
        assert np.all(np.diff(edges) > 0)
        parts = [ql.histogram_from_values(part, edges) for part in np.split(values, [123, 400])]
        assert np.array_equal(sum(parts), counts)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ql.histogram_edges(1.0, 1.0, 0)

    @pytest.mark.parametrize("bins", [2.5, 2.0, "2"])
    def test_non_integer_bins_rejected(self, bins):
        with pytest.raises(InvalidParameterError, match="bins must be an integer"):
            ql.histogram_edges(0.0, 1.0, bins)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                                       (0.0, math.inf), (1.0, 0.0), (np.float64(2.0), 1.5)])
    def test_non_finite_or_reversed_range_rejected(self, lo, hi):
        with pytest.raises(InvalidParameterError, match="histogram range"):
            ql.histogram_edges(lo, hi, 2)


class TestDescriptor:
    def test_round_trip(self):
        desc = small_qlbit_descriptor()
        again = ql.ExperimentDescriptor.from_json_dict(desc.to_json_dict())
        assert again == desc
        assert again.to_json_dict() == desc.to_json_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.ExperimentDescriptor.from_json_dict({"name": "x", "kind": "single-graph",
                                                    "n": 5, "bogus": 1})

    @pytest.mark.parametrize("overrides,fragment", [
        (dict(kind="nope"), "kind"),
        (dict(graph="nope"), "graph"),
        (dict(d=9), "n > d"),
        (dict(d=None), "required"),
        (dict(n=9, d=5), "even"),
        (dict(p=1.5), "p must"),
        (dict(kind="d-regular-product", p=0.1), "applies only"),
        (dict(sign=0), "sign"),
        (dict(n_factors=0), "n_factors"),
        (dict(sigma=-1.0), "sigma"),
        (dict(sigma=ql.experiments.MAX_SIGMA * 10), "sigma must be at most"),
        (dict(n_samples=0), "n_samples"),
        (dict(bins=0), "bins"),
        (dict(deletions=1000), "deletions"),
        (dict(master_seed=-1), "master_seed"),
        (dict(bins=ql.experiments.MAX_BINS + 1), "bins"),
    ])
    def test_validation_messages(self, overrides, fragment):
        desc = small_qlbit_descriptor(**overrides)
        errors = desc.validate()
        assert errors, overrides
        assert any(fragment in e for e in errors)

    def test_ints_too_long_to_print_are_named_by_digit_count(self):
        # Past sys.get_int_max_str_digits() (4,300 by default) an int has no
        # repr: validate once raised ValueError formatting its messages.
        assert small_qlbit_descriptor(n=10**5000).validate() == [
            "n must be an int short enough to print, got an int of 5001 digits"]
        assert small_qlbit_descriptor(master_seed=1 - 10**5000, bins=-10**6000).validate() == [
            "bins must be an int short enough to print, got an int of 6001 digits",
            "master_seed must be an int short enough to print, got an int of 5000 digits"]
        assert small_qlbit_descriptor(name=10**5000, p=[10**5000]).validate() == [
            "name must be a str short enough to print, got an int of 5001 digits",
            "p must be a finite float short enough to print, got a list holding such an int"]

    def test_single_graph_needs_one_factor(self):
        desc = ql.ExperimentDescriptor(name="x", kind="single-graph", n=6, d=3, n_factors=2)
        assert any("n_factors == 1" in e for e in desc.validate())

    def test_cycle_family(self):
        desc = ql.ExperimentDescriptor(name="x", kind="d-regular-product", graph="cycle",
                                       n=5, n_factors=2)
        assert desc.validate() == []

    def test_bundled_all_valid(self):
        assert sorted(ql.BUNDLED_EXPERIMENTS) == [
            "fig2a", "fig2b", "fig2c", "fig3",
            "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f"]
        for desc in ql.BUNDLED_EXPERIMENTS.values():
            assert desc.validate() == []


class TestRunSample:
    def test_deterministic(self):
        desc = small_qlbit_descriptor()
        a = ql.run_sample(desc, 0)
        b = ql.run_sample(desc, 0)
        assert np.array_equal(a.composed.values, b.composed.values)
        assert np.array_equal(a.factors[0].adjacency(), b.factors[0].adjacency())

    def test_samples_differ(self):
        desc = small_qlbit_descriptor()
        a = ql.run_sample(desc, 0)
        b = ql.run_sample(desc, 1)
        assert not np.array_equal(a.composed.values, b.composed.values)

    def test_identical_factors_share_realization(self):
        desc = small_qlbit_descriptor(identical_factors=True)
        sample = ql.run_sample(desc, 0)
        # One factor and one spectrum, each repeated n_factors times.
        f, s = sample.factors[0], sample.spectra[0]
        assert [len(sample.factors), len(sample.spectra)] == [2, 2]
        assert all(x is f for x in sample.factors) and all(x is s for x in sample.spectra)

    def test_independent_factors_differ(self):
        sample = ql.run_sample(small_qlbit_descriptor(), 0)
        assert not np.array_equal(sample.factors[0].adjacency(), sample.factors[1].adjacency())

    def test_shared_base_shares_generation(self):
        desc = ql.ExperimentDescriptor(name="t", kind="d-regular-product", n=12, d=8,
                                       n_factors=3, shared_base=True, n_samples=1)
        sample = ql.run_sample(desc, 0)
        assert np.array_equal(sample.factors[0].edges, sample.factors[1].edges)
        # With deletions the bases still agree; the survivors are subsets.
        desc = desc.with_overrides(deletions=4)
        sample = ql.run_sample(desc, 0)
        e0, e1 = ({tuple(e) for e in f.edges.tolist()} for f in sample.factors[:2])
        assert e0 != e1
        assert len(e0 | e1) <= 48

    def test_qlbit_factor_diagnostics(self):
        sample = ql.run_sample(small_qlbit_descriptor(), 0)
        q, s = sample.factors[0], sample.spectra[0]
        assert isinstance(q, ql.QLBit)
        assert ql.predict_splitting(q) is not None
        assert ql.emergent_pair(q, s) is not None
        assert sample.emergent_index_sets[0] == frozenset({0, 1})
        assert s.eigenvectors is not None

    @pytest.mark.parametrize("name", ["fig4a", "fig3"])
    def test_factor_kind_sets_emergent_indices(self, name):
        desc = ql.BUNDLED_EXPERIMENTS[name].with_overrides(n_samples=4)
        for sample in ql.iter_samples(desc):
            for f, indices in zip(sample.factors, sample.emergent_index_sets):
                if isinstance(f, ql.Graph):
                    assert ql.is_connected(f) == reference_is_connected(f.n_vertices, f.edges)
                    assert indices == frozenset({0})
                else:
                    n, edges, _ = reference_composite(f)
                    assert ql.is_connected(ql.Graph(n, edges)) == reference_is_connected(n, edges)
                    assert indices == frozenset({0, 1})

    def test_disordered_qlbit_emergent_pair_uses_factor_spectrum(self):
        # The emergent pair is read off the factor's own (disordered) spectrum.
        sample = ql.run_sample(small_qlbit_descriptor(sigma=1.0), 0)
        for q, s in zip(sample.factors, sample.spectra):
            assert list(ql.emergent_pair(q, s).eigenvalues) == s.eigenvalues[:2].tolist()

    def test_labels_match_classification(self):
        sample = ql.run_sample(small_qlbit_descriptor(), 0)
        counts = ql.emergent_component_counts(sample.composed, sample.emergent_index_sets)
        assert np.count_nonzero(state_kinds(2)[counts] == EMERGENT) == 4

    def test_invalid_descriptor_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.run_sample(small_qlbit_descriptor(p=2.0), 0)

    @pytest.mark.parametrize("index,problem", [
        (True, "an integer"), (1.5, "an integer"), ("1", "an integer"), (None, "an integer"),
        (-1, "non-negative"), (2**32, r"non-negative and below 2\*\*32"),
        (2**64, r"non-negative and below 2\*\*32")])
    def test_bad_index_refused(self, index, problem):
        with pytest.raises(InvalidParameterError, match=f"sample_index must be {problem}"):
            ql.run_sample(small_qlbit_descriptor(), index)

    def test_validate_keeps_every_hashed_entry_in_a_word(self):
        # The cheapest descriptor validate accepts: the memory model refuses
        # 2**23 samples, so no accepted run hashes a sample index past a word.
        desc = ql.ExperimentDescriptor(name="t", kind="single-graph", n=2, d=1)
        assert desc.with_overrides(n_samples=2**22).validate() == []
        assert [e.split(":")[0] for e in desc.with_overrides(n_samples=2**23).validate()] == [
            f"modelled memory exceeds {ql.experiments.MAX_BYTES} bytes"]

    def test_numpy_integer_index_accepted(self):
        desc = small_qlbit_descriptor()
        assert ql.run_sample(desc, np.int64(1)).seed == ql.run_sample(desc, 1).seed

    def test_disorder_applies(self):
        desc = ql.ExperimentDescriptor(name="t", kind="single-graph", n=12, d=8,
                                       sigma=2.0, n_samples=1)
        sample = ql.run_sample(desc, 0)
        assert abs(sample.composed.values.sum()) > 1e-6  # trace moved off zero


class TestEnsembleSpectrum:
    def test_counts_account_for_every_draw(self):
        desc = small_qlbit_descriptor()
        _, h, seeds = ql.ensemble_spectrum(desc)
        assert h.counts.sum() == 3 * 16**2
        assert len(seeds) == 3

    def test_single_sample_counts_equal_dim(self):
        _, h, _ = ql.ensemble_spectrum(small_qlbit_descriptor(n_samples=1))
        assert h.counts.sum() == 16**2

    def test_deterministic_and_seed_sensitive(self):
        desc = small_qlbit_descriptor()
        _, h1, _ = ql.ensemble_spectrum(desc)
        _, h2, _ = ql.ensemble_spectrum(desc)
        _, h3, _ = ql.ensemble_spectrum(desc.with_overrides(master_seed=1))
        assert np.array_equal(h1.counts, h2.counts)
        assert np.array_equal(h1.bin_edges, h2.bin_edges)
        assert not np.array_equal(h1.counts, h3.counts)

    def test_parameters_recorded(self):
        desc = small_qlbit_descriptor(n_samples=2)
        first, _, seeds = ql.ensemble_spectrum(desc)
        assert seeds == [ql.RngSeed(9000).derive(i).seed for i in range(2)]
        assert seeds == [s.seed for s in ql.iter_samples(desc)]
        assert (first.index, first.seed) == (0, seeds[0])

    # The bundled figures, and one single-graph ensemble (one factor per sample).
    ORACLE_CASES = {**ql.BUNDLED_EXPERIMENTS, "single": ql.ExperimentDescriptor(
        name="single", kind="single-graph", n=12, d=8, sigma=2.0, n_samples=30)}

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [None, 777, 12345])
    def test_streamed_histogram_matches_one_shot_oracle(self, name, seed):
        desc = self.ORACLE_CASES[name]
        if seed is not None:
            desc = desc.with_overrides(master_seed=seed)
        _, h, _ = ql.ensemble_spectrum(desc)
        expected = one_shot_histogram(desc)
        assert h.bin_edges.tobytes() == expected.bin_edges.tobytes()
        assert np.array_equal(h.counts, expected.counts)

    def test_many_sample_peak_memory_bounded(self):
        # 100 samples of three QL bits: 1,382,400 values, 11 MB if held at
        # once. 1,000 samples of fig3: samples 1..999 hash their streams in
        # one batch of 27 chunks of 37 samples, 8 streams each (7,992 streams).
        for name, n_samples, states in [("fig4e", 100, 24**3), ("fig3", 1000, 12**3)]:
            desc = ql.BUNDLED_EXPERIMENTS[name].with_overrides(n_samples=n_samples)
            tracemalloc.start()
            try:
                _, h, _ = ql.ensemble_spectrum(desc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert h.counts.sum() == n_samples * states
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("name,stacks", [
        ("fig3", [1] * 3 + [37] * 6 + [25] * 3),   # 3 distinct 12x12 factors a sample
        ("fig4a", [1] + [10] * 9 + [9]),           # one 40x40 composite a sample
        ("fig4b", [1]),                             # identical factors: one to decompose
    ])
    def test_one_stacked_eigensolve_per_chunk_and_distinct_factor(self, name, stacks,
                                                                 monkeypatch):
        # Sample 0 runs alone; the others in chunks of at most 2**14 matrix entries.
        sizes = []
        decompose = ql.experiments.eigendecompose

        def recorded(a, *args, **kwargs):
            sizes.append(len(a))
            return decompose(a, *args, **kwargs)

        monkeypatch.setattr(ql.experiments, "eigendecompose", recorded)
        ql.ensemble_spectrum(ql.BUNDLED_EXPERIMENTS[name])
        assert sizes == stacks

    def test_numerical_failure_names_the_samples(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        desc = ql.BUNDLED_EXPERIMENTS["fig3"]
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 5: eigendecomposition failed"):
            ql.run_sample(desc, 5)
        with pytest.raises(ql.NumericalFailureError, match=r"^samples 0\.\.36: eigendecomposition"):
            next(ql.iter_samples(desc))
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 0: "):
            ql.ensemble_spectrum(desc)

    def test_zero_samples_refused(self):
        with pytest.raises(InvalidParameterError, match="n_samples"):
            ql.ensemble_spectrum(small_qlbit_descriptor(n_samples=0))

    def test_generation_failure_names_sample(self, monkeypatch):
        import qlgraph.graphs as graphs
        monkeypatch.setattr(graphs, "_pairing_attempt", lambda *a: None)
        with pytest.raises(ql.GenerationFailureError, match="sample 0"):
            ql.ensemble_spectrum(small_qlbit_descriptor(d=3))
        with pytest.raises(ql.GenerationFailureError, match="^sample 2: "):
            ql.run_sample(small_qlbit_descriptor(d=3), 2)

    # d=3 pairs each base itself; d=5 pairs its sparse complement, of degree 2,
    # and complements the chunk's bases at once.
    @pytest.mark.parametrize("d", [3, 5])
    def test_generation_failure_names_the_sample_inside_a_chunk(self, d, monkeypatch):
        # One base a sample: sample 0 runs alone, then samples 1..10 in one
        # chunk. Only the 8th base's pairing fails, and sample 7 owns it.
        import qlgraph.graphs as graphs
        pairing, generators = graphs._pairing_attempt, []

        def fail_eighth(n, d, rng):
            if rng not in generators:
                generators.append(rng)
            return None if generators.index(rng) == 7 else pairing(n, d, rng)

        monkeypatch.setattr(graphs, "_pairing_attempt", fail_eighth)
        desc = ql.ExperimentDescriptor("mid", "d-regular-product", 8, d=d, n_factors=2,
                                       shared_base=True, n_samples=11)
        with pytest.raises(ql.GenerationFailureError, match="^sample 7: d-regular") as exc:
            ql.ensemble_spectrum(desc)
        assert exc.value.restarts == graphs.DEFAULT_MAX_RESTARTS
        assert len(generators) == 8


class TestFig3BandStructure:
    def test_emergent_band_isolated(self):
        # Products of three deleted 8-regular graphs with diagonal disorder:
        # the all-emergent band sits near 3*8 = 24, the random band near 0,
        # and the top state stays separated from the rest.
        desc = ql.BUNDLED_EXPERIMENTS["fig3"]
        emergent_vals, random_means, separated = [], [], 0
        for sample in ql.iter_samples(desc.with_overrides(n_samples=100)):
            counts = ql.emergent_component_counts(sample.composed, sample.emergent_index_sets)
            vals = sample.composed.values
            emergent_vals.append(float(vals[counts == 3][0]))
            random_means.append(float(vals[counts == 0].mean()))
            top = np.sort(vals)[::-1]
            if top[0] - top[1] > 0:
                separated += 1
        assert 20.0 <= np.mean(emergent_vals) <= 26.0
        assert abs(np.mean(random_means)) <= 4.0
        assert separated >= 90
