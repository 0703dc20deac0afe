import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlgraph as ql
import qlgraph.cli as cli
from qlgraph.errors import NumericalFailureError

from oracles import reference_composed_spectrum_csv


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

    def test_fig4f_spectrum_matches_reference_writer(self, tmp_path, capsys):
        # Four identical QL bits: 38,416 rows, many tied values, labels from half-tables.
        assert run_cli(["run", "fig4f", "--out", str(tmp_path)], capsys)[0] == 0
        sample = ql.run_sample(ql.BUNDLED_EXPERIMENTS["fig4f"], 0)
        expected = reference_composed_spectrum_csv(sample.composed, sample.emergent_index_sets)
        text = (tmp_path / "fig4f_spectrum.csv").read_text()
        assert text.splitlines(keepends=True) == expected.splitlines(keepends=True)

    def test_qlbit_run_writes_projection(self, tmp_path, capsys):
        code, _ = run_cli(["run", "fig4a", "--samples", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "fig4a_projection.json").read_text())
        assert sorted(report["alphas"]) == ["0", "1"]
        assert "residual" in report and "eigenvalue" in report

    def test_single_graph_spectrum_format(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "solo", "kind": "single-graph",
                                    "n": 12, "d": 8, "master_seed": 5}))
        code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "solo_spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue,label"
        assert lines[1].split(",")[2] == "emergent"
        assert lines[2].split(",")[2] == "random"
        sample = ql.run_sample(ql.ExperimentDescriptor.from_json_dict(
            json.loads(path.read_text())), 0)
        expected = sample.composed.values[sample.composed.descending_order()]
        assert [float(row.split(",")[1]) for row in lines[1:]] == expected.tolist()

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

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalFailureError("synthetic non-convergence")
        monkeypatch.setattr(cli, "ensemble_spectrum", boom)
        out_dir = tmp_path / "out"
        code, out = run_cli(["run", "fig2a", "--out", str(out_dir)], capsys)
        assert code == 3
        assert json.loads(out)["kind"] == "numerical"
        assert not list(out_dir.iterdir())  # nothing staged, nothing left behind


def count_calls(monkeypatch, names):
    """Count calls of the named functions, wherever a qlgraph module holds them."""
    calls = Counter()
    modules = [m for key, m in list(sys.modules.items())
               if key == "qlgraph" or key.startswith("qlgraph.")]
    for name in names:
        original = getattr(sys.modules["qlgraph.experiments"], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestComputeOnce:
    # Seeds each sample derives: its own seed, one per generated base, then one
    # per factor for coupling (QL bits) or per factor and side for deletion.
    DERIVES_PER_SAMPLE = {"once-qlbit": 1 + 4 + 2, "once-shared": 1 + 1 + 3}

    @pytest.mark.parametrize("descriptor,bases_per_sample", [
        ({"name": "once-qlbit", "kind": "qlbit-product", "n": 8, "d": 5, "p": 0.2,
          "n_factors": 2, "n_samples": 3}, 4),
        ({"name": "once-shared", "kind": "d-regular-product", "n": 12, "d": 8,
          "deletions": 4, "n_factors": 3, "shared_base": True, "n_samples": 3}, 1),
    ])
    def test_each_sample_factor_and_base_computed_once(self, descriptor, bases_per_sample,
                                                      tmp_path, capsys, monkeypatch):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(descriptor))
        calls = count_calls(monkeypatch, ("run_sample", "eigendecompose", "d_regular_random",
                                          "predict_splitting"))
        derive = ql.RngSeed.derive

        def counted_derive(*args, **kwargs):
            calls["derive"] += 1
            return derive(*args, **kwargs)

        monkeypatch.setattr(ql.RngSeed, "derive", counted_derive)
        code, _ = run_cli(["run", str(path), "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        samples, factors = descriptor["n_samples"], descriptor["n_factors"]
        assert calls == Counter(run_sample=samples, eigendecompose=samples * factors,
                                d_regular_random=samples * bases_per_sample,
                                derive=samples * self.DERIVES_PER_SAMPLE[descriptor["name"]])
        assert calls["predict_splitting"] == 0  # no artifact reads the prediction


# A valid single-graph descriptor with up to four of its fields, or an unknown
# field, set to values of any JSON type, including ones no field accepts.
_ODD_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=30),
    st.integers(min_value=-2**80, max_value=2**80),
    st.booleans(),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.5, -0.0, 1e308]),
    st.sampled_from(["../x", "", ".hidden", "a/b", "20", "cycle", "qlbit-product"]),
    st.none(),
    st.lists(st.integers(min_value=-1, max_value=1), max_size=2),
)
_DESCRIPTORS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ql.ExperimentDescriptor)] + ["extra"]),
    _ODD_VALUES, max_size=4,
).map(lambda odd: {"name": "prop", "kind": "single-graph", "n": 12, "d": 8, **odd})


class TestHostileDescriptors:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_DESCRIPTORS)
    def test_refusals_exit_2_and_write_nothing(self, data, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / "exp.json"
            path.write_text(json.dumps(data))
            code, out = run_cli(["validate", str(path)], capsys)
            assert code in (0, 2)
            assert json.loads(out)["status"] == ("ok" if code == 0 else "error")
            if code == 0:
                return
            out_dir = root / "out"
            out_dir.mkdir()
            code, out = run_cli(["run", str(path), "--out", str(out_dir)], capsys)
            assert code == 2
            assert json.loads(out)["kind"] == "validation"
            assert sorted(root.iterdir()) == sorted([path, out_dir])
            assert not list(out_dir.iterdir())
