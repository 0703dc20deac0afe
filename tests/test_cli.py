import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import qlgraph as ql
import qlgraph.cli as cli
from qlgraph.errors import InvalidParameterError, NumericalFailureError

from oracles import range_picks, reference_composed_spectrum_csv


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def file_hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


class TestListAndValidate:
    def test_list_experiments(self, capsys):
        code, out = run_cli(["list-experiments"], capsys)
        assert code == 0
        names = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert names == ["fig2a", "fig2b", "fig2c", "fig3",
                         "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f"]

    def test_validate_bundled(self, capsys):
        code, out = run_cli(["validate", "fig2a"], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_validate_descriptor_file(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "mine", "kind": "single-graph",
                                    "n": 12, "d": 8, "n_samples": 2}))
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 0

    def test_validate_bad_fields(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "mine", "kind": "single-graph",
                                    "n": 12, "d": 8, "p": 3.0}))
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "error"
        assert report["kind"] == "validation"
        assert report["errors"]

    @pytest.mark.parametrize("field,value", [
        ("n", "20"),
        ("name", "../evil"),
        ("name", ".hidden"),
        ("sigma", float("inf")),
        ("n_samples", True),
        ("d", 8.0),
        ("bins", 10**9),
        ("name", "a" * 300),
    ])
    def test_malformed_descriptor_refused(self, field, value, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "mine", "kind": "single-graph",
                                    "n": 12, "d": 8, field: value}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out_dir)]):
            code, out = run_cli(args, capsys)
            assert code == 2
            report = json.loads(out)
            assert report["status"] == "error" and report["kind"] == "validation"
            assert any(e.startswith(f"{field} must") for e in report["errors"])
        assert sorted(tmp_path.iterdir()) == sorted([path, out_dir])  # nothing beside --out
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("descriptor,refused", [
        ({"kind": "qlbit-product", "n": 20, "d": 15, "n_factors": 9}, True),
        ({"kind": "single-graph", "n": 200_000, "d": 3}, True),
        ({"kind": "d-regular-product", "n": 30, "d": 3, "n_factors": 6, "n_samples": 10**8},
         True),
        ({"kind": "d-regular-product", "n": 5, "graph": "cycle", "n_factors": 10**18}, True),
        ({"kind": "qlbit-product", "n": 12, "d": 11, "p": 0.1, "n_factors": 3,
          "n_samples": 10_000}, False),
    ], ids=["40^9-states", "dense-200000", "10^8-samples", "10^18-factors",
            "fig4e-10^4-samples"])
    def test_over_memory_budget_refused(self, descriptor, refused, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "big", **descriptor}))
        if not refused:  # the streamed ensemble holds no n_samples x 24^3 values
            code, out = run_cli(["validate", str(path)], capsys)
            assert (code, json.loads(out)["status"]) == (0, "ok")
            return
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out_dir)]):
            code, out = run_cli(args, capsys)
            assert code == 2
            report = json.loads(out)
            assert report["kind"] == "validation"
            assert report["errors"][0].startswith("modelled memory exceeds")
        assert sorted(tmp_path.iterdir()) == sorted([path, out_dir])
        assert not list(out_dir.iterdir())

    # Without a bound on sigma these validated, then ended `run` in an
    # OverflowError traceback, or in an exit 2 once samples were built.
    @pytest.mark.parametrize("sigma,n_factors", [(10**400, 1), (1e308, 1), (5e307, 3)],
                             ids=["10**400", "1e308", "5e307-3-factors"])
    def test_sigma_past_bound_refused_before_any_work(self, sigma, n_factors, tmp_path, capsys,
                                                       monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "loud", "kind": "d-regular-product", "n": 12, "d": 8,
                                    "sigma": sigma, "n_factors": n_factors}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        calls = count_calls(monkeypatch, ("d_regular_random",))
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out_dir)]):
            code, out = run_cli(args, capsys)
            assert code == 2
            report = json.loads(out)
            assert report["kind"] == "validation"
            assert report["errors"] == [
                f"sigma must be at most {ql.experiments.MAX_SIGMA:g}, got {sigma}"]
        assert calls == Counter()
        assert sorted(tmp_path.iterdir()) == sorted([path, out_dir])
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("descriptor", [
        {"kind": "d-regular-product", "n": 12, "d": 8, "deletions": 4, "n_factors": 3,
         "shared_base": True, "n_samples": 3},
        {"kind": "qlbit-product", "n": 8, "d": 5, "p": 0.2, "n_factors": 2, "n_samples": 3},
    ], ids=["fig3-shaped", "qlbit-product"])
    def test_sigma_at_bound_runs(self, descriptor, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "edge", "sigma": ql.experiments.MAX_SIGMA,
                                    **descriptor}))
        code, out = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        rows = (tmp_path / "out" / "edge_spectrum.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[0]) for row in rows]
        assert all(math.isfinite(v) for v in values)
        assert max(map(abs, values)) > 1e90  # the disorder is there, at full scale
        counts = [int(row.rsplit(",", 1)[1]) for row in
                  (tmp_path / "out" / "edge_histogram.csv").read_text().splitlines()[1:]]
        assert sum(counts) == descriptor["n_samples"] * len(values)

    def test_every_error_reported_alike_by_validate_and_run(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "mine", "kind": "single-graph", "n": 12, "d": 8,
                                    "sign": 3, "sigma": -1.0, "n_samples": 0}))
        reports = [json.loads(run_cli(args, capsys)[1]) for args in (
            ["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")])]
        assert len(reports[0]["errors"]) == 4
        assert reports[0] == reports[1]

    def test_library_caller_sees_errors_joined(self):
        desc = dataclasses.replace(ql.BUNDLED_EXPERIMENTS["fig2a"], sign=3, n_samples=0)
        with pytest.raises(InvalidParameterError) as exc:
            ql.run_sample(desc, 0)
        assert len(exc.value.args) == 3  # the sign twice: not +-1, and not a QL-bit product
        assert str(exc.value) == "; ".join(exc.value.args)
        assert str(InvalidParameterError("a", "b")) == "a; b"
        assert str(InvalidParameterError("only")) == "only"

    @pytest.mark.parametrize("content", [
        b'{"name": "caf\xe9", "kind": "single-graph", "n": 12, "d": 8}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"name": "mine", "kind": "single-graph", "n": ' + b"1" * 5000 + b', "d": 8}',
    ], ids=["not-utf8", "nested-100000-deep", "int-of-5000-digits"])
    def test_unreadable_descriptor_refused(self, content, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_bytes(content)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for args in (["validate", str(path)], ["run", str(path), "--out", str(out_dir)]):
            code, out = run_cli(args, capsys)
            assert code == 2
            report = json.loads(out)
            assert report["status"] == "error" and report["kind"] == "validation"
        assert sorted(tmp_path.iterdir()) == sorted([path, out_dir])  # nothing beside --out
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("text", ["5", "null", "[1]"])
    def test_validate_non_object_json(self, text, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(text)
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["kind"] == "validation"

    def test_validate_missing_file(self, capsys):
        code, out = run_cli(["validate", "no-such-thing"], capsys)
        assert code == 2

    def test_validate_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text("{nope")
        code, out = run_cli(["validate", str(path)], capsys)
        assert code == 2


class TestRun:
    def test_fig2a_artifacts(self, tmp_path, capsys):
        code, out = run_cli(["run", "fig2a", "--out", str(tmp_path)], capsys)
        assert code == 0
        spectrum = (tmp_path / "fig2a_spectrum.csv").read_text().splitlines()
        assert len(spectrum) == 26  # header + 25 states
        assert float(spectrum[1].split(",")[0]) == pytest.approx(4.0, abs=1e-9)
        assert (tmp_path / "fig2a_histogram.csv").exists()
        meta = json.loads((tmp_path / "fig2a_metadata.json").read_text())
        assert meta["descriptor"]["name"] == "fig2a"
        assert len(meta["sample_seeds"]) == 1

    def test_rerun_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", "fig2a", "--out", str(out_a)], capsys)[0] == 0
        assert run_cli(["run", "fig2a", "--out", str(out_b)], capsys)[0] == 0
        assert file_hashes(out_a) == file_hashes(out_b)

    @pytest.mark.parametrize("kind", ["single-graph", "d-regular-product"])
    def test_sign_refused_outside_qlbit_products(self, kind, tmp_path, capsys):
        # No coupling edge carries it: the run would ignore the sign, yet its
        # metadata would record it.
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "signed", "kind": kind, "n": 12, "d": 8,
                                    "sign": -1}))
        for args in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
            code, out = run_cli(args, capsys)
            assert code == 2
            assert json.loads(out)["errors"] == ["sign applies only to qlbit-product"]
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_artifacts(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["run", "fig4a", "--samples", "2"]
        assert run_cli(base + ["--out", str(out_a)], capsys)[0] == 0
        assert run_cli(base + ["--seed", "77", "--out", str(out_b)], capsys)[0] == 0
        ha, hb = file_hashes(out_a), file_hashes(out_b)
        assert ha["fig4a_spectrum.csv"] != hb["fig4a_spectrum.csv"]

    def test_fig4f_composed_spectrum_content(self, tmp_path, capsys):
        code, _ = run_cli(["run", "fig4f", "--out", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "fig4f_spectrum.csv").read_text().splitlines()
        assert lines[0] == "value,label_1,label_2,label_3,label_4,n_emergent_factors"
        assert len(lines) == 38417
        all_emergent = sum(1 for row in lines[1:] if row.rsplit(",", 1)[1] == "4")
        assert all_emergent == 16
        report = json.loads((tmp_path / "fig4f_projection.json").read_text())
        assert len(report["alphas"]) == 16

    @pytest.mark.parametrize("desc", [
        # Four identical QL bits: 38,416 rows, many tied values, labels from half-tables.
        ql.BUNDLED_EXPERIMENTS["fig4f"],
        ql.ExperimentDescriptor("solo", "single-graph", 12, d=8, master_seed=5),
        # Cycle spectra are full of ties: 2cos(2 pi j / 5) for j and 5 - j.
        ql.ExperimentDescriptor("rings", "d-regular-product", 5, graph="cycle", n_factors=3),
    ], ids=["fig4f", "single-graph", "cycle-product"])
    def test_every_kind_writes_the_product_spectrum_csv(self, desc, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(desc.to_json_dict()))
        assert run_cli(["run", str(path), "--out", str(tmp_path)], capsys)[0] == 0
        sample = ql.run_sample(desc, 0)
        written = io.StringIO()
        dims = [len(v) for v, _ in sample.spectra]
        ql.write_composed_spectrum_csv(sample.composed, dims, written, sample.emergent_index_sets)
        expected = reference_composed_spectrum_csv(sample.composed, dims,
                                                   sample.emergent_index_sets)
        text = (tmp_path / f"{desc.name}_spectrum.csv").read_text()
        assert text == written.getvalue()
        assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)

    def test_qlbit_run_writes_projection(self, tmp_path, capsys):
        code, _ = run_cli(["run", "fig4a", "--samples", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "fig4a_projection.json").read_text())
        assert sorted(report["alphas"]) == ["0", "1"]
        assert "residual" in report and "eigenvalue" in report

    def test_library_results_are_the_pairs_the_cli_writes(self, tmp_path, capsys):
        # The histogram is np.histogram's (counts, edges) pair and the
        # projection an (alphas, residual) pair: both give the CLI's artifacts.
        desc = ql.BUNDLED_EXPERIMENTS["fig4a"]
        first, (counts, edges), _ = ql.ensemble_spectrum(desc)
        assert counts.sum() == desc.n_samples * first.composed.size
        buf = io.StringIO()
        ql.write_histogram_csv(counts, edges, buf)
        assert run_cli(["run", "fig4a", "--out", str(tmp_path)], capsys)[0] == 0
        assert buf.getvalue() == (tmp_path / "fig4a_histogram.csv").read_text()
        vectors = [vecs[:, 0] for _, vecs in first.spectra]
        alphas, residual = ql.project_alphas(first.factors, vectors)
        norm_sq = math.prod(float(v @ v) for v in vectors)
        assert abs(sum(a * a for a in alphas.values()) + residual**2 - norm_sq) <= 1e-12
        report = json.loads((tmp_path / "fig4a_projection.json").read_text())
        assert (report["alphas"], report["residual"]) == (alphas, residual)

    def test_single_graph_spectrum_format(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "solo", "kind": "single-graph",
                                    "n": 12, "d": 8, "master_seed": 5}))
        code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "solo_spectrum.csv").read_text().splitlines()
        assert lines[0] == "value,label_1,n_emergent_factors"
        rows = [row.split(",") for row in lines[1:]]
        # The top state is the graph's one emergent state (k = N = 1); every
        # other state is random (k = 0).
        assert [k for _, _, k in rows] == ["1"] + ["0"] * (len(rows) - 1)
        sample = ql.run_sample(ql.ExperimentDescriptor.from_json_dict(
            json.loads(path.read_text())), 0)
        order = ql.products.descending_order(sample.composed)
        assert [int(label) for _, label, _ in rows] == order.tolist()
        expected = sample.composed[order]
        assert [float(value) for value, _, _ in rows] == expected.tolist()

    def test_zero_samples_rejected_no_files(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "bad", "kind": "single-graph",
                                    "n": 12, "d": 8, "n_samples": 0}))
        out_dir = tmp_path / "out"
        code, out = run_cli(["run", str(path), "--out", str(out_dir)], capsys)
        assert code == 2
        assert json.loads(out)["kind"] == "validation"
        assert not out_dir.exists() or not list(out_dir.iterdir())

    @pytest.mark.parametrize("out", ["taken", "taken/x"])
    def test_out_not_a_directory_refused(self, out, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        code, report = run_cli(["run", "fig2a", "--out", str(tmp_path / out)], capsys)
        assert code == 2
        assert json.loads(report)["kind"] == "validation"
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("blocked", ["fig2a_spectrum.csv", "fig2a_metadata.json",
                                         ".fig2a_histogram.csv.tmp"])
    def test_artifact_path_not_a_file_refused(self, blocked, tmp_path, capsys, monkeypatch):
        (tmp_path / blocked).mkdir()
        monkeypatch.setattr(cli, "ensemble_spectrum", None)  # refused before any work
        code, report = run_cli(["run", "fig2a", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(report)["kind"] == "validation"
        assert list(tmp_path.iterdir()) == [tmp_path / blocked]
        assert not list((tmp_path / blocked).iterdir())

    def test_invalid_parameter_during_run_exit_code(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise InvalidParameterError("synthetic refusal")
        monkeypatch.setattr(cli, "ensemble_spectrum", refuse)
        out_dir = tmp_path / "out"
        code, out = run_cli(["run", "fig2a", "--out", str(out_dir)], capsys)
        assert code == 2
        assert json.loads(out) == {"status": "error", "kind": "validation",
                                   "errors": ["synthetic refusal"]}
        assert not list(out_dir.iterdir())

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailureError("synthetic non-convergence")
        monkeypatch.setattr(cli, "ensemble_spectrum", boom)
        out_dir = tmp_path / "out"
        code, out = run_cli(["run", "fig2a", "--out", str(out_dir)], capsys)
        assert code == 3
        assert json.loads(out)["kind"] == "numerical"
        assert not list(out_dir.iterdir())  # nothing staged, nothing left behind


def count_calls(monkeypatch, names, weights=None):
    """Count calls of the named functions, each looked up in the qlgraph module
    that defines it, wherever a qlgraph module holds them.

    ``weights`` maps a name to what one call adds, from its arguments; 1
    otherwise.
    """
    calls = Counter()
    weights = weights or {}
    modules = [m for key, m in list(sys.modules.items())
               if key == "qlgraph" or key.startswith("qlgraph.")]
    for name in names:
        original = next(vars(m)[name] for m in modules
                        if getattr(vars(m).get(name), "__module__", None) == m.__name__)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += weights.get(_name, lambda *_: 1)(*args)
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def count_hashing(monkeypatch) -> Counter:
    """Count `derive_seeds` calls and the seeds they derive, `stream_states`
    calls and the generator states they hash, `derive_streams` calls and the
    streams they prime, whoever calls them, and the hash passes
    (`_generate_state` calls) under them."""
    hashed = Counter()
    derive_seeds, derive_streams = ql.rng.derive_seeds, ql.rng.derive_streams
    stream_states, generate_state = ql.rng.stream_states, ql.rng._generate_state

    def counted_derive_seeds(seeds, paths):
        hashed["passes"] += 1
        hashed["streams"] += len(seeds) * len(paths)
        return derive_seeds(seeds, paths)

    def counted_stream_states(seeds):
        hashed["state_passes"] += 1
        hashed["states"] += seeds.size
        return stream_states(seeds)

    def counted_derive_streams(seeds, states):
        hashed["primings"] += 1
        hashed["primed"] += seeds.size
        return derive_streams(seeds, states)

    def counted_generate_state(*args):
        hashed["hashes"] += 1
        return generate_state(*args)

    for module in (ql.rng, ql.experiments):
        monkeypatch.setattr(module, "derive_seeds", counted_derive_seeds)
        monkeypatch.setattr(module, "derive_streams", counted_derive_streams)
        monkeypatch.setattr(module, "stream_states", counted_stream_states)
    monkeypatch.setattr(ql.rng, "_generate_state", counted_generate_state)
    return hashed


def count_graphs(monkeypatch) -> Counter:
    """Count the `Graph` constructions that validate their edges: all but
    those `cycle_graph`, `d_regular_random` and `delete_random_edges` build
    on edge rows canonical by construction."""
    built = Counter()
    post_init = ql.Graph.__post_init__

    def counted(self):
        built["Graph"] += 1
        post_init(self)

    monkeypatch.setattr(ql.Graph, "__post_init__", counted)
    return built


def count_objects(monkeypatch) -> Counter:
    """Count the `Graph._of_canonical`, `QLBit._of_canonical` and `SampleResult`
    constructions, by class name."""
    built = Counter()
    for cls, name in ((ql.Graph, "_of_canonical"), (ql.QLBit, "_of_canonical"),
                      (ql.SampleResult, "__init__")):
        original = vars(cls)[name]

        def counted(*args, _name=cls.__name__, _func=getattr(original, "__func__", original),
                    **kwargs):
            built[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(cls, name, classmethod(counted)
                            if isinstance(original, classmethod) else counted)
    return built


class TestComputeOnce:
    # Streams each sample hashes: its own seed, one per generated base, then one
    # per factor for coupling (QL bits) or per factor and side for deletion.
    STREAMS_PER_SAMPLE = {"once-qlbit": 1 + 4 + 2, "once-shared": 1 + 1 + 3,
                          "once-cycle": 1 + 0 + 3}
    # Sample 0 is a batch of one and samples 1..2 a second batch, of one
    # chunk. Each batch derives its sample seeds in one `derive_seeds` call,
    # then its stage seeds in another, and hashes the stage streams' states in
    # one `stream_states` call; each chunk primes its stage streams in one
    # `derive_streams` call.
    DERIVE_CALLS = 2 * 2
    STATE_CALLS = 2
    PRIME_CALLS = 2
    # Per batch, one hash pass for the sample seeds, which parent streams and
    # build no generator, and two for the stage seeds and their states.
    HASH_PASSES = 2 * 3
    # Graphs a run validates: none. Every base is generated, deleted and
    # coupled on rows canonical by construction, and a factor keeps the graph
    # or QL bit it was built as.
    GRAPHS_PER_RUN = {"once-qlbit": 0, "once-shared": 0, "once-cycle": 0}

    # Objects sample 0 alone is built as, besides one SampleResult: a graph
    # for each base of a factor after its deletions, and a QL bit on two.
    SAMPLE_0_OBJECTS = {"once-qlbit": {"Graph": 4, "QLBit": 2}, "once-shared": {"Graph": 3},
                        "once-cycle": {"Graph": 3}}

    # Bases built per sample, by their builder: a d-regular base is one
    # `d_regular_random` call of its sparse degree (the dense complement is
    # taken for a whole chunk at once), and a cycle base one row of a chunk's
    # `_cycle_rows` array, built once per side and shared by every factor.
    @pytest.mark.parametrize("descriptor,bases_per_sample", [
        ({"name": "once-qlbit", "kind": "qlbit-product", "n": 8, "d": 5, "p": 0.2,
          "n_factors": 2, "n_samples": 3}, {"d_regular_random": 4}),
        ({"name": "once-shared", "kind": "d-regular-product", "n": 12, "d": 8,
          "deletions": 4, "n_factors": 3, "shared_base": True, "n_samples": 3},
         {"d_regular_random": 1}),
        ({"name": "once-cycle", "kind": "d-regular-product", "graph": "cycle", "n": 5,
          "deletions": 1, "n_factors": 3, "n_samples": 3}, {"_cycle_rows": 1}),
    ])
    def test_each_sample_factor_and_base_computed_once(self, descriptor, bases_per_sample,
                                                      tmp_path, capsys, monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(descriptor))
        desc = ql.ExperimentDescriptor(**descriptor)
        resolved = (len(range_picks(desc, [range(1, desc.n_samples)],
                                    ql.experiments._VALUES_ONLY_TOL)[0])
                    if desc.kind == "qlbit-product" else 0)
        # eigendecompose counts matrices: a stack's leading dimension, or one.
        # _cycle_rows counts rows: the cycles it repeats for a chunk.
        calls = count_calls(monkeypatch, ("run_sample", "eigendecompose", "d_regular_random",
                                          "cycle_graph", "_cycle_rows", "compose_spectra",
                                          "predict_splitting", "is_connected", "emergent_pair"),
                            weights={"eigendecompose": lambda a, *_: len(a) if a.ndim == 3 else 1,
                                     "_cycle_rows": lambda n, count: count})
        # Every stream of the pipeline is hashed through derive_seeds and derive_streams.
        hashed = count_hashing(monkeypatch)
        built = count_graphs(monkeypatch)
        objects = count_objects(monkeypatch)
        code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        samples, factors = descriptor["n_samples"], descriptor["n_factors"]
        # run_sample gives ensemble_spectrum sample 0; the others run in chunks.
        # Only sample 0's grid is composed; the histogram composes values in chunks.
        # Samples 1..2, a QL chunk solved values-only, re-solve each factor of their range picks.
        bases = Counter({name: samples * count for name, count in bases_per_sample.items()})
        assert calls == Counter(run_sample=1, eigendecompose=(samples + resolved) * factors,
                                compose_spectra=1, **bases)
        streams = samples * self.STREAMS_PER_SAMPLE[descriptor["name"]]
        assert hashed == Counter(passes=self.DERIVE_CALLS, hashes=self.HASH_PASSES,
                                 streams=streams, state_passes=self.STATE_CALLS,
                                 states=streams - samples, primings=self.PRIME_CALLS,
                                 primed=streams - samples)
        # Deletions and couplings build on canonical rows, and no graph spans
        # both blocks of a QL bit.
        assert built == Counter(Graph=self.GRAPHS_PER_RUN[descriptor["name"]])
        # Samples 1 on are eigenvalue rows: only sample 0 is built as graphs,
        # QL bits and a SampleResult, beside the graph each sparse
        # `d_regular_random` call returns.
        assert objects == Counter(self.SAMPLE_0_OBJECTS[descriptor["name"]],
                                  SampleResult=1) + Counter(Graph=calls["d_regular_random"])
        # No artifact reads the prediction or the diagnostics.
        assert calls["predict_splitting"] == calls["is_connected"] == calls["emergent_pair"] == 0

    @pytest.mark.parametrize("descriptor,n_samples,states", [
        ({"name": "once-qlbit", "kind": "qlbit-product", "n": 8, "d": 5, "p": 0.2,
          "n_factors": 2, "n_samples": 3}, 3, 16**2),
        ({"name": "once-shared", "kind": "d-regular-product", "n": 12, "d": 8,
          "deletions": 4, "n_factors": 3, "shared_base": True, "n_samples": 3}, 3, 12**3),
        ("fig4f", 1, 14**4),
    ], ids=["once-qlbit", "once-shared", "fig4f"])
    def test_each_grid_value_composed_once(self, descriptor, n_samples, states, tmp_path,
                                           capsys, monkeypatch):
        if isinstance(descriptor, dict):
            path = tmp_path / "exp.json"
            path.write_text(json.dumps(descriptor))
            descriptor = str(path)
        # Rows composed, by their width: whole grids, or composed_range's extremes.
        rows = Counter()
        compose_values = ql.products.compose_values

        def counted(factor_values):
            grid = compose_values(factor_values)
            rows[grid.shape[1]] += grid.shape[0]
            return grid

        for module in (ql.products, ql.experiments):
            monkeypatch.setattr(module, "compose_values", counted)
        code, _ = run_cli(["run", descriptor, "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        assert rows == Counter({states: n_samples, 1: 2 * n_samples})

    def test_fig4a_graphs_and_hash_passes(self, tmp_path, capsys, monkeypatch):
        # 100 samples of one QL bit: no graph is validated, sample 0's two bases
        # for the projection included. Sample 0 is a batch of one and samples
        # 1..99 (4 streams each) a second batch: 2 batches of 3 hash passes.
        # Each chunk primes its own streams: sample 0, then samples 1..99 in
        # chunks of 10 (16,384 entries / 40^2).
        hashed = count_hashing(monkeypatch)
        built = count_graphs(monkeypatch)
        code, _ = run_cli(["run", "fig4a", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert built["Graph"] == 0
        assert (hashed["hashes"], hashed["primings"]) == (2 * 3, 1 + 10)

    def test_fig4a_hash_passes_do_not_depend_on_chunks(self, tmp_path, capsys, monkeypatch):
        # One sample a chunk: 100 chunks. A batch holds at most 40^2 streams,
        # 400 samples, so still 2 batches of 3 hash passes.
        monkeypatch.setattr(ql.experiments, "_CHUNK_VALUES", 40**2)
        hashed = count_hashing(monkeypatch)
        code, _ = run_cli(["run", "fig4a", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (hashed["hashes"], hashed["primings"]) == (2 * 3, 100)

    def test_descriptor_validated_once_per_run(self, tmp_path, capsys, monkeypatch):
        type_errors = ql.ExperimentDescriptor._type_errors
        calls = []

        def counted(desc):
            calls.append(desc)
            return type_errors(desc)

        monkeypatch.setattr(ql.ExperimentDescriptor, "_type_errors", counted)
        code, _ = run_cli(["run", "fig4a", "--samples", "5", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert len(calls) == 1


# A valid single-graph descriptor with up to four of its fields, or an unknown
# field, set to values of any JSON type, including ones no field accepts.
_ODD_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=30),
    st.integers(min_value=-2**80, max_value=2**80),
    st.booleans(),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.5, -0.0, 1e308, 5e307, 10**400, -10**400]),
    st.sampled_from(["../x", "", ".hidden", "a/b", "20", "cycle", "qlbit-product"]),
    st.none(),
    st.lists(st.integers(min_value=-1, max_value=1), max_size=2),
)
_DESCRIPTORS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ql.ExperimentDescriptor)] + ["extra"]),
    _ODD_VALUES, max_size=4,
).map(lambda odd: {"name": "prop", "kind": "single-graph", "n": 12, "d": 8, **odd})
# Valid descriptors past the memory budget by a factor of 8 or more: a dense
# adjacency of 8n^2 bytes, 3^n_factors composed states, or at least a byte
# per sample. They are named "big"; the budget is their only error, but for a
# single graph past MAX_VERTICES, which the degree rule refuses instead.
_OVER_BUDGET = st.one_of(
    st.builds(lambda n: {"kind": "single-graph", "n": 2 * n, "d": 8},
              st.integers(2**14, 2**40)),
    st.builds(lambda n, n_factors: {"kind": "d-regular-product", "graph": "cycle", "n": n,
                                    "n_factors": n_factors},
              st.integers(3, 40), st.integers(22, 10**18)),
    st.builds(lambda kind, n_samples: {"kind": kind, "n": 12, "d": 8, "n_samples": n_samples},
              st.sampled_from(["single-graph", "d-regular-product", "qlbit-product"]),
              st.integers(2**33, 2**64)),
).map(lambda sizes: {"name": "big", **sizes})


@st.composite
def _near_valid(draw):
    """A valid small descriptor of any kind and graph family with at most one
    field, or an unknown one, set to an odd value: most validate and run."""
    kind = draw(st.sampled_from(ql.experiments.KINDS))
    data = {"name": "prop", "kind": kind, "n": 6, "deletions": draw(st.integers(0, 2)),
            "sigma": draw(st.sampled_from([0.0, 1.5])),
            "identical_factors": draw(st.booleans()), "shared_base": draw(st.booleans()),
            "n_samples": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        data["graph"] = "cycle"
    else:
        data["d"] = draw(st.integers(1, 5))  # n = 6: every degree below n is feasible
    if kind != "single-graph":
        data["n_factors"] = draw(st.integers(1, 3))
    if kind == "qlbit-product":
        data["p"] = draw(st.floats(0.0, 1.0))
        data["sign"] = draw(st.sampled_from([1, -1]))
    odd = draw(st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(ql.ExperimentDescriptor)] + ["extra"]),
        _ODD_VALUES, max_size=1))
    return {**data, **odd}


class TestHostileDescriptors:
    # Every descriptor `validate` accepts runs; every other one is refused
    # before any work. Each pinned sigma once validated and then failed in `run`.
    @settings(derandomize=True, database=None, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.one_of(_DESCRIPTORS, _OVER_BUDGET, _near_valid()))
    @example(data={"name": "prop", "kind": "d-regular-product", "n": 12, "d": 8, "sigma": 1e308})
    @example(data={"name": "prop", "kind": "d-regular-product", "n": 12, "d": 8, "sigma": 5e307,
                   "n_factors": 3})
    @example(data={"name": "prop", "kind": "d-regular-product", "n": 12, "d": 8, "sigma": 10**400})
    def test_validated_runs_and_refusals_write_nothing(self, data, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / "exp.json"
            path.write_text(json.dumps(data))
            code, out = run_cli(["validate", str(path)], capsys)
            assert code in (0, 2)
            assert json.loads(out)["status"] == ("ok" if code == 0 else "error")
            if data["name"] == "big" and data["n"] > ql.graphs.MAX_VERTICES:
                assert data["kind"] == "single-graph" and json.loads(out)["errors"] == [
                    f"n must be in [9, {ql.graphs.MAX_VERTICES}], got {data['n']}"]
            elif data["name"] == "big":
                assert [e.split(":")[0] for e in json.loads(out)["errors"]] == [
                    f"modelled memory exceeds {ql.experiments.MAX_BYTES} bytes"]
            validated = code == 0
            event(f"validated: {validated}")
            out_dir = root / "out"
            out_dir.mkdir()
            code, out = run_cli(["run", str(path), "--out", str(out_dir)], capsys)
            written = sorted(p.name for p in out_dir.iterdir())
            event(f"ran: {validated and code == 0}")
            if validated and code == 0:
                meta = json.loads((out_dir / f"{data['name']}_metadata.json").read_text())
                assert written == meta["artifacts"]
            else:
                # A validated descriptor may only fail to generate its graphs.
                assert (code, json.loads(out)["kind"]) == (
                    (3, "numerical") if validated else (2, "validation"))
                assert written == []
            assert sorted(root.iterdir()) == sorted([path, out_dir])
