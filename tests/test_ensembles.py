import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qlgraph as ql
from qlgraph.errors import InvalidParameterError

from oracles import (one_shot_histogram, range_picks, reference_composite,
                     reference_is_connected, stage_stream)


def small_qlbit_descriptor(**overrides):
    base = dict(name="t-qlbit", kind="qlbit-product", n=8, d=5, p=0.2,
                n_factors=2, n_samples=3, bins=40, master_seed=9000)
    base.update(overrides)
    return ql.ExperimentDescriptor(**base)


class TestClassifyStates:
    """A state's class follows from k, its emergent component count from
    emergent_component_counts, of N factors: emergent when k == N, random
    when k == 0, hybrid in between."""

    def setup_method(self):
        vals, _ = ql.eigendecompose(ql.adjacency(ql.cycle_graph(4)), want_vectors=False)
        self.composed, self.dims = ql.compose_spectra([vals, vals, vals]), (4, 4, 4)

    def counts(self, emergent_indices):
        counts = ql.emergent_component_counts(self.dims, emergent_indices)
        assert counts.shape == (self.composed.size,) and counts.dtype == np.int64
        return counts

    def test_labels_by_component_membership(self):
        counts = self.counts([{0}, {0}, {0}])
        def flat(labels):
            return np.ravel_multi_index(labels, self.dims)

        assert counts[flat((0, 0, 0))] == 3  # emergent
        assert counts[flat((0, 2, 3))] == 1  # hybrid
        assert counts[flat((0, 0, 3))] == 2  # hybrid
        assert counts[flat((1, 2, 3))] == 0  # random

    def test_partition_is_exhaustive(self):
        counts = self.counts([{0}, {0}, {0}])
        n = len(self.dims)
        # emergent, hybrid (one or two emergent components) and random
        classes = [counts == n, (0 < counts) & (counts < n), counts == 0]
        assert [np.count_nonzero(c) for c in classes] == [1, 3 * 3 + 3 * 9, 27]
        assert sum(classes).all() and self.composed.size == 64

    def test_qlbit_factors_give_2_to_n_emergent(self):
        counts = self.counts([{0, 1}] * 3)
        assert np.count_nonzero(counts == 3) == 2**3

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.emergent_component_counts(self.dims, [{0}, {9}, {0}])
        with pytest.raises(InvalidParameterError):
            ql.emergent_component_counts(self.dims, [{0}, {0}])

    @pytest.mark.parametrize("index", [0.5, 1.0, "1"])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(InvalidParameterError, match="emergent index must be an integer"):
            ql.emergent_component_counts(self.dims, [{0}, {index}, {0}])


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

    @pytest.mark.parametrize("name,values,edges,dtype", [
        ("values", [0.5 + 5j, 1.5], [0.0, 1.0, 2.0], "complex128"),
        ("values", ["0.5", "1.5"], [0.0, 1.0, 2.0], "<U3"),
        ("edges", [0.5, 1.5], [0.0, 1.0 + 1j, 2.0], "complex128"),
        ("edges", [0.5, 1.5], ["0", "1", "2"], "<U1"),
    ])
    def test_non_real_input_refused(self, name, values, edges, dtype):
        # Binned by the real part or counted as nothing, before the cast.
        with pytest.raises(InvalidParameterError,
                           match=f"^{name} must hold real numbers, got dtype {dtype}$"):
            ql.histogram_from_values(np.array(values), np.array(edges))

    @pytest.mark.parametrize("edges", [
        [0.0, math.nan, 1.0],  # binned three values of 1.0 as [3, 0]
        [0.0, 1.0, math.inf],
        [[0.0, 1.0], [2.0, 3.0]],  # numpy's "`bins` must be 1d"
        [1.0, 0.0],  # numpy's "bins must increase monotonically"
        [0.0, 1.0, 1.0],
        [0.0],
    ], ids=["nan", "inf", "2d", "decreasing", "repeated", "one"])
    def test_edges_that_bound_no_bins_refused(self, edges):
        with pytest.raises(InvalidParameterError, match="^edges must be 1-D, at least two, finite"):
            ql.histogram_from_values(np.ones(3), np.array(edges))

    @pytest.mark.parametrize("values,outside", [
        ([math.nan, 0.5, math.inf, 7.0], 3),  # once binned as [1]
        ([-math.inf], 1),
        ([0.5, -1e-300], 1),
        ([np.nextafter(1.0, 2.0)], 1),
    ], ids=["nan-inf-above", "minus-inf", "below", "one-ulp-above"])
    def test_values_in_no_bin_refused(self, values, outside):
        with pytest.raises(InvalidParameterError, match=(
                rf"^values must lie within \[0\.0, 1\.0\]: {outside} of {len(values)} are NaN, "
                "infinite or outside$")):
            ql.histogram_from_values(np.array(values), np.array([0.0, 1.0]))

    def test_values_on_and_between_the_edges_all_counted(self):
        values = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0, -0.0])
        assert ql.histogram_from_values(values, np.array([0.0, 0.5, 1.0])).tolist() == [3, 3]

    def test_float64_input_binned_without_a_copy(self, monkeypatch):
        values, edges, seen = np.array([0.5, 1.5, 1.75]), np.array([0.0, 1.0, 2.0]), []
        histogram = np.histogram

        def recorded(a, bins):
            seen.extend((a, bins))
            return histogram(a, bins=bins)

        monkeypatch.setattr(np, "histogram", recorded)
        assert ql.histogram_from_values(values, edges).tolist() == [1, 2]
        assert seen[0] is values and seen[1] is edges

    @pytest.mark.parametrize("bins", [2.5, 2.0, "2"])
    def test_non_integer_bins_rejected(self, bins):
        with pytest.raises(InvalidParameterError, match="bins must be an integer"):
            ql.histogram_edges(0.0, 1.0, bins)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0),
                                       (0.0, math.inf), (1.0, 0.0), (np.float64(2.0), 1.5)])
    def test_non_finite_or_reversed_range_rejected(self, lo, hi):
        with pytest.raises(InvalidParameterError, match="histogram range"):
            ql.histogram_edges(lo, hi, 2)

    def test_bins_past_max_bins_refused(self):
        # MAX_BINS + 1 is refused before any allocation; numpy alone would try
        # to allocate every edge of a huge count.
        with pytest.raises(InvalidParameterError, match=r"^bins must be in \[1, 1000000\], got 1000001$"):
            ql.histogram_edges(0.0, 1.0, ql.ensembles.MAX_BINS + 1)
        assert ql.histogram_edges(0.0, 1.0, ql.ensembles.MAX_BINS).shape == (1_000_001,)
        assert ql.experiments.MAX_BINS is ql.ensembles.MAX_BINS

    @pytest.mark.parametrize("lo,hi,shown", [
        (10**400, 1.0, "1" + "0" * 400 + ", 1.0"), (0.0, -10**400, "0.0, -1" + "0" * 400),
        (-10**5000, 0.0, "an int of 5001 digits"), ("0", 1.0, "'0'"), (None, 1.0, "None"),
        (0.0, 1j, "1j"), (True, 1.0, "True"),
        (-1.7e308, 1.7e308, "-1.7e+308, 1.7e+308"),  # each bound is a float, their span is not
    ], ids=["int-past-float", "negative-int-past-float", "int-past-repr", "str", "none",
            "complex", "bool", "span-past-float"])
    def test_bounds_that_are_no_float_refused(self, lo, hi, shown):
        with pytest.raises(InvalidParameterError, match="histogram range") as info:
            ql.histogram_edges(lo, hi, 2)
        assert shown in str(info.value)

    def test_bounds_at_float_range_accepted(self):
        edges = ql.histogram_edges(-1e307, 10**308, 2)  # an int within float range
        assert np.isfinite(edges).all() and edges[0] == -1e307
        assert ql.histogram_edges(np.int64(0), np.float32(1), 1).tolist() == [-0.5, 1.5]


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
        (dict(d=9), "n must be in [10, 2147483648], got 8"),
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
            "n must be in [6, 2147483648], got an int of 5001 digits"]
        assert small_qlbit_descriptor(master_seed=1 - 10**5000, bins=-10**6000).validate() == [
            "bins must be in [1, 1000000], got an int of 6001 digits",
            "master_seed must be in [0, 18446744073709551615], got an int of 5000 digits"]
        assert small_qlbit_descriptor(name=10**5000, p=[10**5000]).validate() == [
            "name must be a str, got an int of 5001 digits",
            "p must be a finite float, got a list holding such an int"]
        # The degree rule checks d first; a refused base bounds deletions below only.
        assert small_qlbit_descriptor(n=10**4400, d=10**4400 - 2, deletions=-1).validate() == [
            "d must be in [1, 2147483647], got an int of 4400 digits",
            "deletions must be at least 0, got -1"]

    # Descriptor override -> the stage call it mirrors (small_qlbit_descriptor's
    # bases are 5-regular on 8 vertices), and the stage's name for the field.
    @pytest.mark.parametrize("overrides,stage,name", [
        (dict(d=20), lambda: ql.d_regular_random(8, 20, ql.RngSeed(0)), None),
        (dict(n=9, d=5), lambda: ql.d_regular_random(9, 5, ql.RngSeed(0)), None),
        (dict(graph="cycle", d=None, n=2), lambda: ql.cycle_graph(2), None),
        (dict(p=1.5), lambda: ql.couple(ql.cycle_graph(3), ql.cycle_graph(3), 1.5, 1,
                                        ql.RngSeed(0)), None),
        (dict(sign=0), lambda: ql.couple(ql.cycle_graph(3), ql.cycle_graph(3), 0.2, 0,
                                         ql.RngSeed(0)), None),
        (dict(bins=0), lambda: ql.histogram_edges(0.0, 1.0, 0), None),
        (dict(master_seed=-1), lambda: ql.RngSeed(-1), "seed"),
        (dict(deletions=21), lambda: ql.delete_random_edges(
            ql.d_regular_random(8, 5, ql.RngSeed(0)), 21, ql.RngSeed(1)), "count"),
    ], ids=["degree", "parity", "cycle", "p", "sign", "bins", "master_seed", "deletions"])
    def test_refusal_is_the_stages_own(self, overrides, stage, name):
        with pytest.raises(InvalidParameterError) as info:
            stage()
        text = str(info.value)
        if name is not None:
            field = next(iter(overrides))
            assert text.startswith(f"{name} must ")
            text = field + text[len(name):]
        assert text in small_qlbit_descriptor(**overrides).validate()

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ql.ExperimentDescriptor)
                                       if f.type in ("int", "int | None", "float")])
    def test_huge_values_are_named_by_digit_count(self, field, sign):
        # Each int field is refused by its range rule, n_factors and n_samples
        # past the budget by the memory model, which names them too.
        errors = small_qlbit_descriptor(**{field: sign * 10**5000}).validate()
        assert any(field in e and "an int of 5001 digits" in e for e in errors), errors

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
        assert np.array_equal(a.composed, b.composed)
        assert np.array_equal(a.factors[0].adjacency(), b.factors[0].adjacency())

    def test_samples_differ(self):
        desc = small_qlbit_descriptor()
        a = ql.run_sample(desc, 0)
        b = ql.run_sample(desc, 1)
        assert not np.array_equal(a.composed, b.composed)

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
        q, (vals, vecs) = sample.factors[0], sample.spectra[0]
        assert isinstance(q, ql.QLBit)
        assert ql.predict_splitting(q) is not None
        assert ql.emergent_pair(q, vals) is not None
        assert sample.emergent_index_sets[0] == frozenset({0, 1})
        assert vecs.shape == (q.n_vertices, q.n_vertices)

    @pytest.mark.parametrize("name", ["fig4a", "fig3"])
    def test_factor_kind_sets_emergent_indices(self, name):
        desc = ql.BUNDLED_EXPERIMENTS[name].with_overrides(n_samples=4)
        for sample in (ql.run_sample(desc, i) for i in range(desc.n_samples)):
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
        for q, (vals, _) in zip(sample.factors, sample.spectra):
            assert list(ql.emergent_pair(q, vals).eigenvalues) == vals[:2].tolist()

    def test_labels_match_classification(self):
        sample = ql.run_sample(small_qlbit_descriptor(), 0)
        counts = ql.emergent_component_counts([len(v) for v, _ in sample.spectra],
                                              sample.emergent_index_sets)
        assert np.count_nonzero(counts == 2) == 4  # k == N: emergent

    def test_invalid_descriptor_rejected(self):
        with pytest.raises(InvalidParameterError):
            ql.run_sample(small_qlbit_descriptor(p=2.0), 0)

    @pytest.mark.parametrize("index,problem", [
        (True, "an integer"), (1.5, "an integer"), ("1", "an integer"), (None, "an integer"),
        (-1, r"in \[0, 4294967295\], got -1$"), (2**32, r"in \[0, 4294967295\], got 4294967296$"),
        (2**64, r"in \[0, 4294967295\], got 18446744073709551616$")])
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
        assert abs(sample.composed.sum()) > 1e-6  # trace moved off zero


class TestEnsembleSpectrum:
    def test_counts_account_for_every_draw(self):
        desc = small_qlbit_descriptor()
        _, (counts, _), seeds = ql.ensemble_spectrum(desc)
        assert counts.sum() == 3 * 16**2
        assert len(seeds) == 3

    def test_single_sample_counts_equal_dim(self):
        _, (counts, _), _ = ql.ensemble_spectrum(small_qlbit_descriptor(n_samples=1))
        assert counts.sum() == 16**2

    def test_deterministic_and_seed_sensitive(self):
        desc = small_qlbit_descriptor()
        _, (counts_1, edges_1), _ = ql.ensemble_spectrum(desc)
        _, (counts_2, edges_2), _ = ql.ensemble_spectrum(desc)
        _, (counts_3, _), _ = ql.ensemble_spectrum(desc.with_overrides(master_seed=1))
        assert np.array_equal(counts_1, counts_2)
        assert np.array_equal(edges_1, edges_2)
        assert not np.array_equal(counts_1, counts_3)

    def test_parameters_recorded(self):
        desc = small_qlbit_descriptor(n_samples=2)
        first, _, seeds = ql.ensemble_spectrum(desc)
        assert seeds == [ql.RngSeed(9000).derive(i).seed for i in range(2)]
        assert seeds == [ql.run_sample(desc, i).seed for i in range(2)]
        assert (first.index, first.seed) == (0, seeds[0])

    # The bundled figures, and one single-graph ensemble (one factor per sample).
    # Then QL ensembles whose values-only eigenvalues bin apart from `eigh`'s:
    # samples tied at the extremes, which set the edges (tied-complete also has
    # the composed value 6 on its inner edge), and one whose spectra, symmetric
    # about 0, put values within ulps of the inner edge at 0.
    ORACLE_CASES = {**ql.BUNDLED_EXPERIMENTS, **{d.name: d for d in (
        ql.ExperimentDescriptor(name="single", kind="single-graph", n=12, d=8, sigma=2.0,
                                n_samples=30),
        ql.ExperimentDescriptor(name="tied-cycle", kind="qlbit-product", graph="cycle", n=3,
                                p=0.0, n_factors=2, n_samples=5, bins=4),
        ql.ExperimentDescriptor(name="tied-complete", kind="qlbit-product", n=4, d=3, p=1.0,
                                n_factors=2, n_samples=5, bins=2),
        ql.ExperimentDescriptor(name="tied-uncoupled", kind="qlbit-product", n=8, d=3, p=0.0,
                                n_samples=12),
        ql.ExperimentDescriptor(name="edge-at-zero", kind="qlbit-product", graph="cycle", n=3,
                                deletions=1, p=0.1, sign=-1, n_factors=2, shared_base=True,
                                n_samples=18, bins=4, master_seed=618487638),
    )}}

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [None, 777, 12345])
    def test_streamed_histogram_matches_one_shot_oracle(self, name, seed):
        desc = self.ORACLE_CASES[name]
        if seed is not None:
            desc = desc.with_overrides(master_seed=seed)
        _, (counts, edges), _ = ql.ensemble_spectrum(desc)
        expected_counts, expected_edges = one_shot_histogram(desc)
        assert edges.tobytes() == expected_edges.tobytes()
        assert np.array_equal(counts, expected_counts)

    @pytest.mark.parametrize("name", ["fig4a", "fig4c", "fig4e"])
    def test_values_only_eigenvalues_within_tol_of_eigh(self, name, monkeypatch):
        # Every factor matrix the run solves: `eigvalsh` is off `eigh` by at most
        # tol/1000 of the matrix's largest |eigenvalue|, the margin the range picks
        # and the inner-edge re-runs rest on, held where the golden digests skip.
        mats = []
        decompose = ql.experiments.eigendecompose

        def recorded(a, *args, **kwargs):
            mats.extend(a.reshape(-1, *a.shape[-2:]))  # a stack, or sample 0's one matrix
            return decompose(a, *args, **kwargs)

        monkeypatch.setattr(ql.experiments, "eigendecompose", recorded)
        ql.ensemble_spectrum(ql.BUNDLED_EXPERIMENTS[name])
        mats = np.array(mats)
        exact = np.linalg.eigh(mats)[0]
        gaps = np.abs(np.linalg.eigvalsh(mats) - exact).max(axis=1) / np.abs(exact).max(axis=1)
        assert gaps.max() <= ql.experiments._VALUES_ONLY_TOL / 1000

    def test_many_sample_peak_memory_bounded(self):
        # 100 samples of three QL bits: 1,382,400 values, 11 MB if held at
        # once. 1,000 samples of fig3: samples 1..999 hash their streams in
        # one batch of 8 chunks of up to 128 samples, 8 streams each (7,992 streams).
        for name, n_samples, states in [("fig4e", 100, 24**3), ("fig3", 1000, 12**3)]:
            desc = ql.BUNDLED_EXPERIMENTS[name].with_overrides(n_samples=n_samples)
            tracemalloc.start()
            try:
                _, (counts, _), _ = ql.ensemble_spectrum(desc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts.sum() == n_samples * states
            assert peak < 4 * 2**20

    @pytest.mark.parametrize("desc", [
        ql.BUNDLED_EXPERIMENTS["fig3"], ql.BUNDLED_EXPERIMENTS["fig4a"],
        ql.BUNDLED_EXPERIMENTS["fig4e"],
        # Twelve 2-vertex factors, each with base, deletion and disorder streams:
        # about one stream a matrix entry, where the streams outweigh the matrices.
        ql.ExperimentDescriptor("streams", "d-regular-product", 2, d=1, deletions=1,
                                sigma=1.0, n_factors=12),
    ], ids=["fig3", "fig4a", "fig4e", "streams"])
    def test_chunk_memory_within_model(self, desc):
        # Samples 1..384 fill three whole chunks of 128 samples, their streams
        # hashed in one batch. The traced peak of the chunk loop, its eigenvalues
        # kept, stays below the memory model's `_chunk_bytes`; a first chunk
        # before tracing leaves out one-time costs of the process.
        desc = desc.with_overrides(n_samples=1 + 3 * 128)
        list(ql.experiments._chunk_values(desc, 1, 2))
        tracemalloc.start()
        try:
            chunks = list(ql.experiments._chunk_values(desc, 1, desc.n_samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(indices) for indices, _, _ in chunks] == [128] * 3
        assert peak < desc._chunk_bytes(desc.n_factors)

    @pytest.mark.parametrize("name,stacks", [
        ("fig3", [1] * 3 + [99] * 3),   # 3 distinct 12x12 factors a sample
        ("fig4a", [1] + [99]),          # one 40x40 composite a sample
        ("fig4c", [1] * 2 + [49] * 2),  # 2 distinct 40x40 composites
        ("fig4e", [1] * 3 + [49] * 3),  # 3 distinct 24x24 composites
        ("fig4b", [1]),                 # identical factors: one to decompose
    ])
    def test_one_stacked_eigensolve_per_chunk_and_distinct_factor(self, name, stacks,
                                                                 monkeypatch):
        # Sample 0 runs alone; the others in chunks of at most 2**18 matrix entries
        # and 128 samples: one chunk at every bundled size.
        desc = ql.BUNDLED_EXPERIMENTS[name]
        if desc.kind == "qlbit-product" and desc.n_samples > 1:  # the chunk re-solves its picks
            (picks,) = range_picks(desc, [range(1, desc.n_samples)],
                                   ql.experiments._VALUES_ONLY_TOL)
            stacks = stacks + [len(picks)] * desc.n_factors
        sizes = []
        decompose = ql.experiments.eigendecompose

        def recorded(a, *args, **kwargs):
            sizes.append(len(a) if a.ndim == 3 else 1)  # sample 0 solves each matrix alone
            return decompose(a, *args, **kwargs)

        monkeypatch.setattr(ql.experiments, "eigendecompose", recorded)
        ql.ensemble_spectrum(desc)
        assert sizes == stacks

    def test_numerical_failure_names_the_samples(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        desc = ql.BUNDLED_EXPERIMENTS["fig3"]
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 5: eigendecomposition failed"):
            ql.run_sample(desc, 5)
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 0: eigendecomposition"):
            next(ql.experiments._chunk_values(desc, 0, desc.n_samples))
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 0: "):
            ql.ensemble_spectrum(desc)
        # A QL run solves sample 0 with eigenvectors, then samples 1 on values-only.
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 1: "):
            ql.ensemble_spectrum(ql.BUNDLED_EXPERIMENTS["fig4a"])

    def test_numerical_failure_names_the_first_failing_sample_of_its_chunk(self, monkeypatch):
        # The solver fails on any stack that holds one of fig3 sample 7's
        # matrices: the whole chunk of samples 1..99, then sample 7 alone.
        desc = ql.BUNDLED_EXPERIMENTS["fig3"]
        ((indices, _, streams),) = ql.experiments._chunk_streams(desc, 7, 8)
        _, mats = ql.experiments._chunk_matrices(desc, indices, streams)
        eigvalsh = np.linalg.eigvalsh

        def fail_on_sample_7(a):
            if any(np.array_equal(m, target) for m in a for target in mats[:, 0]):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_sample_7)
        with pytest.raises(ql.NumericalFailureError, match=r"^sample 7: eigendecomposition"):
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

    @pytest.mark.parametrize("d", [3, 5])
    def test_generation_failure_names_the_sample_of_a_side_1_base(self, d, monkeypatch):
        # A QL bit's chunk builds both sides' bases in one call, side 0's then
        # side 1's: sample 0 runs alone, then samples 1..10 in one chunk. Only
        # sample 7's side-1 base fails: its generator, never drawn from, keeps
        # its stream's first state.
        import qlgraph.graphs as graphs
        desc = ql.ExperimentDescriptor("mid", "qlbit-product", 8, d=d, p=0.2, n_samples=11)
        _, target = stage_stream(desc.master_seed, 7, (0, 0, 1))
        pairing, failed = graphs._pairing_attempt, []

        def fail_target(n, d, rng):
            if rng.bit_generator.state == target:
                failed.append(rng)
                return None
            return pairing(n, d, rng)

        monkeypatch.setattr(graphs, "_pairing_attempt", fail_target)
        with pytest.raises(ql.GenerationFailureError, match="^sample 7: d-regular") as exc:
            ql.ensemble_spectrum(desc)
        assert exc.value.restarts == len(failed) == graphs.DEFAULT_MAX_RESTARTS


class TestFig3BandStructure:
    def test_emergent_band_isolated(self):
        # Products of three deleted 8-regular graphs with diagonal disorder:
        # the all-emergent band sits near 3*8 = 24, the random band near 0,
        # and the top state stays separated from the rest.
        desc = ql.BUNDLED_EXPERIMENTS["fig3"]
        emergent_vals, random_means, separated = [], [], 0
        for sample in (ql.run_sample(desc, i) for i in range(100)):
            counts = ql.emergent_component_counts([len(v) for v, _ in sample.spectra],
                                                  sample.emergent_index_sets)
            vals = sample.composed
            emergent_vals.append(float(vals[counts == 3][0]))
            random_means.append(float(vals[counts == 0].mean()))
            top = np.sort(vals)[::-1]
            if top[0] - top[1] > 0:
                separated += 1
        assert 20.0 <= np.mean(emergent_vals) <= 26.0
        assert abs(np.mean(random_means)) <= 4.0
        assert separated >= 90
