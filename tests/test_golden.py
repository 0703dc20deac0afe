"""Golden digests: every bundled figure, run through the CLI at its bundled
seed and size, writes artifacts whose sha256 equals the recorded one. So do
a few ensembles at another seed and size, whose samples span several chunks
of the stacked eigensolve and end in a partial chunk.

The bytes depend on repr(float), numpy and BLAS/LAPACK, so the comparison
is skipped when any of their versions differs from the recorded ones.
Re-record only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from qlgraph import cli
from qlgraph.experiments import BUNDLED_EXPERIMENTS

GOLDEN = Path(__file__).with_name("golden_digests.json")

# `qlgraph run` arguments past the bundled seed and size. Chunks hold 37 fig3
# samples, 10 fig4a or fig4b samples or 40 fig4d samples; `ensemble_spectrum`
# runs sample 0 alone first. fig4b and fig4d have identical factors.
RUNS = ("fig3 --seed 777 --samples 37", "fig3 --seed 777 --samples 80",
        "fig4a --seed 777 --samples 37", "fig4b --seed 777 --samples 23",
        "fig4c --seed 777 --samples 23", "fig4d --seed 777 --samples 90",
        "fig4e --seed 777 --samples 13", "fig4f --seed 777")


def toolchain() -> dict[str, str]:
    """Versions the artifact bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def figure_digests(args: str, out_dir: Path) -> dict[str, str]:
    """`qlgraph run <args>` into an empty directory; sha256 of each artifact."""
    out_dir.mkdir()
    assert cli.main(["run", *args.split(), "--out", str(out_dir)]) == cli.EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _recorded_or_skip() -> dict:
    recorded = _recorded()
    if recorded["toolchain"] != toolchain():
        pytest.skip(f"digests recorded with {recorded['toolchain']}, running {toolchain()}")
    return recorded


@pytest.mark.parametrize("name", sorted(BUNDLED_EXPERIMENTS))
def test_bundled_figure_matches_golden_digests(name, tmp_path):
    assert figure_digests(name, tmp_path / name) == _recorded_or_skip()["figures"][name]


@pytest.mark.parametrize("args", RUNS)
def test_chunk_crossing_run_matches_golden_digests(args, tmp_path):
    assert figure_digests(args, tmp_path / "out") == _recorded_or_skip()["runs"][args]


def test_every_bundled_figure_is_recorded():
    assert sorted(_recorded()["figures"]) == sorted(BUNDLED_EXPERIMENTS)


def test_every_run_is_recorded():
    assert sorted(_recorded()["runs"]) == sorted(RUNS)


def record(scratch: Path) -> None:
    figures = {name: figure_digests(name, scratch / name) for name in sorted(BUNDLED_EXPERIMENTS)}
    runs = {args: figure_digests(args, scratch / f"run{i}") for i, args in enumerate(RUNS)}
    GOLDEN.write_text(json.dumps({"toolchain": toolchain(), "figures": figures, "runs": runs},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        record(Path(tmp))
