"""Command-line surface: run, validate, and list experiment descriptors.

Artifacts are deterministic functions of the descriptor: re-running with
the same master seed reproduces byte-identical files. All outputs are
written to temporary files and renamed only after every artifact of the
run has been produced, so failed runs leave nothing behind.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .ensembles import write_histogram_csv
from .errors import GenerationFailureError, InvalidParameterError, NumericalFailureError
from .experiments import (BUNDLED_EXPERIMENTS, EXPERIMENT_NOTES, KIND_QLBIT_PRODUCT,
                          ExperimentDescriptor, ensemble_spectrum, require_valid)
from .products import write_composed_spectrum_csv
from .projection import project_alphas

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
# Staged texts are encoded a slice at a time, each under glibc's 128 KiB mmap threshold.
_WRITE_CHARS = 2**16


def _json_text(obj) -> str:
    """The one JSON form of every artifact and report: indented, keys sorted."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _refuse(kind: str, exc: Exception, code: int) -> int:
    """Print the error report, one entry per exception argument and the failing sample
    and stage when known, and return the exit code."""
    known = {k: v for k in ("sample", "stage") if (v := getattr(exc, k)) is not None}
    print(_json_text({"status": "error", "kind": kind, "errors": list(exc.args), **known}), end="")
    return code


def _load_descriptor(ref: str) -> ExperimentDescriptor:
    if ref in BUNDLED_EXPERIMENTS:
        return BUNDLED_EXPERIMENTS[ref]
    path = Path(ref)
    if not path.is_file():
        raise InvalidParameterError(
            f"{ref!r} is neither a bundled experiment nor a descriptor file")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers.
        raise InvalidParameterError(f"descriptor is not readable UTF-8 JSON: {exc}") from exc
    return ExperimentDescriptor.from_json_dict(data)


def _run(desc: ExperimentDescriptor, out_dir: Path) -> list[Path]:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot use --out as a directory: {exc}") from exc
    suffixes = ["spectrum.csv", "histogram.csv", "metadata.json"]
    if desc.kind == KIND_QLBIT_PRODUCT:
        suffixes.append("projection.json")
    names = {suffix: f"{desc.name}_{suffix}" for suffix in suffixes}
    # A write or rename onto a directory (or similar) would fail midway: refuse
    # before any work.
    for name in names.values():
        for path in (out_dir / f".{name}.tmp", out_dir / name):
            if path.exists() and not path.is_file():
                raise InvalidParameterError(f"{path} exists and is not a regular file")
    first, (counts, edges), sample_seeds = ensemble_spectrum(desc)

    buf = io.StringIO()
    write_composed_spectrum_csv(first.composed, [len(v) for v, _ in first.spectra], buf,
                                first.emergent_index_sets)
    spectrum, buf = buf.getvalue(), io.StringIO()
    write_histogram_csv(counts, edges, buf)
    texts = {"spectrum.csv": spectrum,
             "histogram.csv": buf.getvalue(),
             "metadata.json": _json_text({"descriptor": desc.to_json_dict(),
                                          "sample_seeds": sample_seeds,
                                          "artifacts": sorted(names.values())})}
    if desc.kind == KIND_QLBIT_PRODUCT:
        alphas, residual = project_alphas(first.factors, [vecs[:, 0] for _, vecs in first.spectra])
        texts["projection.json"] = _json_text({
            "alphas": alphas, "residual": residual,
            "eigenvalue": float(first.composed[0]), "labels": [0] * len(first.factors)})

    # Stage everything, then rename: no partial outputs on failure. The names
    # share one stem, so suffix order is file-name order.
    staged = []
    try:
        for suffix, name in sorted(names.items()):
            tmp, text = out_dir / f".{name}.tmp", texts[suffix]
            with tmp.open("w") as f:  # write_text's mode, without an encoded copy of the text
                staged.append((tmp, out_dir / name))
                for i in range(0, len(text), _WRITE_CHARS):
                    f.write(text[i:i + _WRITE_CHARS])
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    return [final for _, final in staged]


def cmd_run(args) -> int:
    desc = _load_descriptor(args.descriptor)
    if args.seed is not None:
        desc = desc.with_overrides(master_seed=args.seed)
    if args.samples is not None:
        desc = desc.with_overrides(n_samples=args.samples)
    written = _run(require_valid(desc), Path(args.out))
    print(_json_text({"status": "ok", "name": desc.name,
                      "artifacts": [str(p) for p in written]}), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    desc = require_valid(_load_descriptor(args.descriptor))
    print(_json_text({"status": "ok", "name": desc.name}), end="")
    return EXIT_OK


def cmd_list(args) -> int:
    for name in sorted(BUNDLED_EXPERIMENTS):
        print(f"{name}\t{EXPERIMENT_NOTES.get(name, '')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlgraph",
        description="Spectra of coupled-network products and qubit-basis projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment descriptor")
    p_run.add_argument("descriptor", help="bundled experiment name or descriptor JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--samples", type=int, default=None, help="override the sample count")
    p_run.add_argument("--out", default=".", help="output directory (default: cwd)")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a descriptor without running")
    p_val.add_argument("descriptor", help="bundled experiment name or descriptor JSON path")
    p_val.set_defaults(func=cmd_validate)

    p_list = sub.add_parser("list-experiments", help="list bundled figure experiments")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        return _refuse("validation", exc, EXIT_VALIDATION)
    except (NumericalFailureError, GenerationFailureError) as exc:
        return _refuse("numerical", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
