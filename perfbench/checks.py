"""Correctness checks on the artifacts of one CLI run, and the environment record.

Every check reads only the bytes the run wrote, so it holds for any seed:
row counts, ordering, emergent-band size, histogram totals, Parseval for
the projection, and one metadata seed per sample. Pinned sha256 digests
are compared only at the seed and size they were recorded for, and only
when the Python, numpy and BLAS versions match the recording machine.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

PARSEVAL_TOL = 1e-9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Expectation:
    """What a run of one workload must write, derived from its stated size."""

    name: str
    factor_dim: int
    n_factors: int
    samples: int
    qlbit: bool

    @property
    def product_dim(self) -> int:
        return self.factor_dim ** self.n_factors

    @property
    def artifact_names(self) -> set[str]:
        kinds = ["spectrum.csv", "histogram.csv", "metadata.json"]
        if self.qlbit:
            kinds.append("projection.json")
        return {f"{self.name}_{k}" for k in kinds}


def digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(artifacts.items())}


def _check_spectrum(text: str, exp: Expectation) -> list[str]:
    rows = csv.reader(io.StringIO(text))
    header = next(rows)
    n_rows = 0
    n_band = 0
    previous = float("inf")
    ordered = True
    for row in rows:
        n_rows += 1
        value = float(row[0])
        ordered = ordered and value <= previous
        previous = value
        n_band += int(row[-1]) == exp.n_factors
    problems = []
    if header[0] != "value" or header[-1] != "n_emergent_factors":
        problems.append(f"spectrum header {header}")
    if n_rows != exp.product_dim:
        problems.append(f"spectrum has {n_rows} rows, expected {exp.product_dim}")
    if not ordered:
        problems.append("spectrum values are not in non-increasing order")
    if exp.qlbit and n_band != 2 ** exp.n_factors:
        problems.append(f"{n_band} fully emergent rows, expected {2 ** exp.n_factors}")
    return problems


def _check_histogram(text: str, exp: Expectation) -> list[str]:
    lines = text.splitlines()
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    expected = exp.samples * exp.product_dim
    return [] if total == expected else [f"histogram counts sum to {total}, expected {expected}"]


def _check_projection(text: str) -> list[str]:
    report = json.loads(text)
    mass = sum(a * a for a in report["alphas"].values()) + report["residual"] ** 2
    ok = abs(mass - 1.0) <= PARSEVAL_TOL
    return [] if ok else [f"projection sum(alpha^2) + residual^2 = {mass!r}, expected 1"]


def _check_metadata(text: str, exp: Expectation) -> list[str]:
    seeds = json.loads(text)["sample_seeds"]
    return [] if len(seeds) == exp.samples else [
        f"metadata lists {len(seeds)} sample seeds, expected {exp.samples}"]


def check_artifacts(artifacts: dict[str, bytes], exp: Expectation) -> list[str]:
    """Invariants that hold for every seed; returns the broken ones (empty when correct)."""
    names = set(artifacts)
    if names != exp.artifact_names:
        return [f"artifacts {sorted(names)}, expected {sorted(exp.artifact_names)}"]
    try:
        text = {name: data.decode() for name, data in artifacts.items()}
        problems = _check_spectrum(text[f"{exp.name}_spectrum.csv"], exp)
        problems += _check_histogram(text[f"{exp.name}_histogram.csv"], exp)
        problems += _check_metadata(text[f"{exp.name}_metadata.json"], exp)
        if exp.qlbit:
            problems += _check_projection(text[f"{exp.name}_projection.json"])
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, StopIteration) as exc:
        return [f"artifacts do not parse: {exc!r}"]
    return problems


def compare_digests(found: dict[str, str], expected: dict[str, str], label: str) -> list[str]:
    if found == expected:
        return []
    differing = sorted(n for n in set(found) | set(expected) if found.get(n) != expected.get(n))
    return [f"{label} digest mismatch: {', '.join(differing)}"]


def toolchain() -> dict[str, str]:
    """Versions the artifact bytes depend on: repr(float), numpy, BLAS/LAPACK."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return dict(toolchain(),
                blas_threads={var: os.environ.get(var) for var in BLAS_THREAD_VARS},
                nproc=len(os.sched_getaffinity(0)),
                git_commit=git_commit(root))
