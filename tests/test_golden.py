"""Golden digests: every bundled figure, run through the CLI at its bundled
seed and size, writes artifacts whose sha256 equals the recorded one.

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


def toolchain() -> dict[str, str]:
    """Versions the artifact bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def figure_digests(name: str, out_dir: Path) -> dict[str, str]:
    """Run one bundled figure into an empty directory; sha256 of each artifact."""
    out_dir.mkdir()
    assert cli.main(["run", name, "--out", str(out_dir)]) == cli.EXIT_OK
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def _recorded() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BUNDLED_EXPERIMENTS))
def test_bundled_figure_matches_golden_digests(name, tmp_path):
    recorded = _recorded()
    if recorded["toolchain"] != toolchain():
        pytest.skip(f"digests recorded with {recorded['toolchain']}, running {toolchain()}")
    assert figure_digests(name, tmp_path / name) == recorded["figures"][name]


def test_every_bundled_figure_is_recorded():
    assert sorted(_recorded()["figures"]) == sorted(BUNDLED_EXPERIMENTS)


def record(scratch: Path) -> None:
    figures = {name: figure_digests(name, scratch / name) for name in sorted(BUNDLED_EXPERIMENTS)}
    GOLDEN.write_text(json.dumps({"toolchain": toolchain(), "figures": figures},
                                 indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        record(Path(tmp))
