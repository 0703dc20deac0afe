"""Declarative experiment descriptors and the seeded generation pipeline.

A descriptor captures one experiment (a figure recipe): the factor family,
its parameters, the factor count, disorder, and sampling controls. One
master seed drives everything; per-sample and per-stage streams are derived
from it, so samples are independent and any parallel evaluation order gives
identical results.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .ensembles import MAX_BINS, histogram_edges, histogram_from_values
from .errors import (GenerationFailureError, InvalidParameterError, NumericalFailureError,
                     require_int, shown)
from .graphs import MAX_VERTICES, MIN_CYCLE, _checked_degree
from .graphs import (Graph, _add_disorder, _cycle_rows, _d_regular_rows, _deleted_rows,
                     _write_rows, d_regular_random)  # noqa: F401, read here by perfbench's tracer
from .products import compose_spectra, compose_values, composed_range
from .qlbits import QLBit, _checked_p, _checked_sign, _cross_edges, _write_qlbits
from .rng import MAX_SEED, RngSeed, derive_seeds, derive_streams, stream_states
from .spectra import eigendecompose

KIND_SINGLE = "single-graph"
KIND_REGULAR_PRODUCT = "d-regular-product"
KIND_QLBIT_PRODUCT = "qlbit-product"
KINDS = (KIND_SINGLE, KIND_REGULAR_PRODUCT, KIND_QLBIT_PRODUCT)

GRAPH_REGULAR = "d-regular"
GRAPH_CYCLE = "cycle"
GRAPH_FAMILIES = (GRAPH_REGULAR, GRAPH_CYCLE)

# Stream separation within one sample.
_STAGE_BASE = 0
_STAGE_DELETE = 1
_STAGE_COUPLE = 2
_STAGE_DISORDER = 3

# Diagonal disorder past this is refused: about 200 orders of magnitude below
# float64 overflow, so the draws, their sums over factors and the histogram
# range stay finite.
MAX_SIGMA = 1e100

# `ensemble_spectrum` recomposes and bins this many values at a time, or one
# whole sample when that is larger: its memory does not grow with n_samples.
# Samples are built and eigendecomposed in chunks of at most this many matrix
# entries across their distinct factors, or of one sample when that is larger.
_CHUNK_VALUES = 2**14  # also the most streams hashed in one batch of whole chunks

# A QL sample solved values-only (`eigvalsh`) is off the bits of `eigh` on the
# same matrix: both LAPACK paths are backward stable, each eigenvalue within
# p(n)*eps*||A|| of the exact one, so a composed value moves by a few ulps of
# the largest |composed extreme|, and tol is this times the larger of it and 1.
# The worst gap measured over fig4a, fig4c and fig4e at 5 seeds was 3.1e-15 of
# max|eigenvalue|, about 3e5 below tol. So a sample more than 2*tol below the
# greatest composed top so far (above the least bottom) holds no extreme of the
# run, and a value more than tol from every bin edge bins as `eigh`'s would.
_VALUES_ONLY_TOL = 2.0**-30

# Modelled peak memory of a run, refused past this. With dim = 2n for a QL bit
# and n otherwise, states = dim^n_factors, and entries = dim^2 times the
# distinct factors of a sample, the model adds up one chunk of at most
# max(_CHUNK_VALUES, entries) matrix entries, 8 bytes an entry each for the
# factor matrices, decomposed in place, and part of LAPACK's copy of them or,
# before the solve, a QL bit's coupling draws and, for QL bits, for the
# solver's vectors, each sample's copy of them and sample 0's kept copy, plus
# at most 8 bytes an entry for the edge rows of each factor (16 bytes a row;
# under n^2/2 rows a base and n^2 for a coupling, against (2n)^2 entries of a
# QL bit); sample 0, kept whole, with its composed values and then the two
# int64 arrays of its sort or its CSV text and StringIO's copy of it,
# 72*states; one chunk of at most max(_CHUNK_VALUES, states) values and
# np.histogram's sorted copy of it, 16 bytes a value; one batch of at most
# _CHUNK_VALUES hashed streams, 160 bytes a stream (tracemalloc: 2.33 MB for
# the largest); per sample its factor eigenvalues, 8*n_factors*dim, and its
# seed as an int and a line of metadata JSON, at most _SEED_BYTES. The vector
# terms over-count chunks that keep no vectors, and 8*n_factors*dim identical
# factors, which keep one array: both are kept, so `validate` accepts the same
# descriptors.
MAX_BYTES = 2**30
_SEED_BYTES = 128

# Artifact file stems: no path separators, no leading dot, and at most 200
# characters, so the longest staged file name stays within 255.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,199}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Descriptor field annotation -> (value check, expectation in the error message).
_FIELD_CHECKS = {
    "int": (_is_int, "an int"),
    "float": (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
              "a finite float"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "str": (lambda v: isinstance(v, str), "a str"),
}


@dataclass(frozen=True)
class ExperimentDescriptor:
    """Complete description of one experiment; serializes round-trip stable."""

    name: str
    kind: str
    n: int
    graph: str = GRAPH_REGULAR
    d: int | None = None
    deletions: int = 0
    p: float = 0.0
    sign: int = 1
    n_factors: int = 1
    identical_factors: bool = False
    shared_base: bool = False
    sigma: float = 0.0
    n_samples: int = 1
    bins: int = 200
    master_seed: int = 20260808

    def validate(self) -> list[str]:
        """All precondition violations, empty when the descriptor is runnable."""
        return list(self._errors)

    @cached_property
    def _errors(self) -> tuple[str, ...]:
        """The violations, found once per descriptor: its fields never change. A rule
        a stage makes is the stage's own check, its refusal named as the field."""
        errors = self._type_errors()
        if errors:
            return tuple(errors)
        if not _NAME_PATTERN.fullmatch(self.name):
            errors.append(f"name must match {_NAME_PATTERN.pattern}, got {self.name!r}")
        if self.kind not in KINDS:
            errors.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.graph not in GRAPH_FAMILIES:
            errors.append(f"graph must be one of {GRAPH_FAMILIES}, got {self.graph!r}")
        cycle = self.graph == GRAPH_CYCLE
        if cycle and self.d is not None:
            errors.append("d does not apply to cycle graphs")
        elif not cycle and self.d is None:
            errors.append("d is required for d-regular graphs")
        edges = self.n if cycle else self.n * (self.d or 0) // 2  # a valid base's edge count
        for check in (
            (lambda: require_int("n", self.n, MIN_CYCLE, MAX_VERTICES)) if cycle
            else (lambda: self.d is None or _checked_degree(self.n, self.d)),
            lambda: require_int("deletions", self.deletions, 0, None if errors else edges),
            lambda: _checked_p(self.p),
            lambda: _checked_sign(self.sign),
            lambda: require_int("n_factors", self.n_factors, 1),
            lambda: require_int("n_samples", self.n_samples, 1),
            lambda: require_int("bins", self.bins, 1, MAX_BINS),
            lambda: require_int("master_seed", self.master_seed, 0, MAX_SEED),
        ):
            try:
                check()
            except InvalidParameterError as exc:
                errors.extend(exc.args)
        if self.kind != KIND_QLBIT_PRODUCT and self.p != 0.0:
            errors.append(f"p applies only to {KIND_QLBIT_PRODUCT}")
        if self.kind != KIND_QLBIT_PRODUCT and self.sign != 1:
            errors.append(f"sign applies only to {KIND_QLBIT_PRODUCT}")
        if self.kind == KIND_SINGLE and self.n_factors != 1:
            errors.append(f"{KIND_SINGLE} requires n_factors == 1")
        if self.sigma < 0:
            errors.append(f"sigma must be non-negative, got {shown(self.sigma)}")
        elif self.sigma > MAX_SIGMA:
            errors.append(f"sigma must be at most {MAX_SIGMA:g}, got {shown(self.sigma)}")
        if not errors and self._over_budget():
            errors.append(f"modelled memory exceeds {MAX_BYTES} bytes: n={shown(self.n)}, "
                          f"n_factors={shown(self.n_factors)}, n_samples={shown(self.n_samples)}")
        return tuple(errors)

    @property
    def _dim(self) -> int:
        """The side of each factor matrix: 2n for a QL bit, n otherwise."""
        return 2 * self.n if self.kind == KIND_QLBIT_PRODUCT else self.n

    def _over_budget(self) -> bool:
        """Whether the MAX_BYTES model is exceeded, multiplying one factor at a time."""
        dim = self._dim
        entry_bytes = 48 if self.kind == KIND_QLBIT_PRODUCT else 24
        states = 1
        for k in range(1, self.n_factors + 1):  # dim >= 2: past the budget within ~30 steps
            states *= dim
            entries = (1 if self.identical_factors else k) * dim * dim
            if (entry_bytes * max(_CHUNK_VALUES, entries) + 72 * states
                    + 16 * max(_CHUNK_VALUES, states) + 160 * _CHUNK_VALUES
                    + self.n_samples * (8 * k * dim + _SEED_BYTES) > MAX_BYTES):
                return True
        return False

    def _type_errors(self) -> list[str]:
        """Fields whose value is not of the annotated type; floats must be finite."""
        errors = []
        for f in fields(self):
            value = getattr(self, f.name)
            check, expectation = _FIELD_CHECKS[f.type.removesuffix(" | None")]
            if not check(value) and not (value is None and f.type.endswith(" | None")):
                errors.append(f"{f.name} must be {expectation}, got {shown(value)}")
        return errors

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentDescriptor":
        if not isinstance(data, dict):
            raise InvalidParameterError("descriptor must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidParameterError(f"unknown descriptor fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidParameterError(f"malformed descriptor: {exc}") from exc

    def with_overrides(self, **kwargs) -> "ExperimentDescriptor":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SampleResult:
    """One pipeline sample: each factor, a `Graph` or `QLBit` as built, and its
    `eigendecompose` pair. With ``identical_factors`` both repeat one object n_factors times."""

    index: int
    seed: int  # derived from the master seed; RngSeed(seed) roots every stream of the sample
    factors: tuple[Graph | QLBit, ...]
    spectra: tuple[tuple[np.ndarray, np.ndarray | None], ...]

    @property
    def emergent_index_sets(self) -> tuple[frozenset[int], ...]:
        """Eigen-indices of each factor's emergent states: a QL bit's top two, else the top one."""
        return tuple(frozenset({0, 1} if isinstance(f, QLBit) else {0}) for f in self.factors)

    @cached_property
    def composed(self) -> np.ndarray:
        """`compose_spectra` of the factors' eigenvalues, built on first use."""
        return compose_spectra([values for values, _ in self.spectra])


def _stage_paths(desc: ExperimentDescriptor) -> list[tuple[int, ...]]:
    """The stages one sample runs, as the paths of their streams in the order
    `_chunk_matrices` runs them: per distinct factor, its d-regular bases
    (factor 0's alone with ``shared_base``), its deletions, its coupling
    and its disorder, each per side where it has sides."""
    sides = range(2 if desc.kind == KIND_QLBIT_PRODUCT else 1)
    paths = []
    for k in range(_distinct_factors(desc)):
        if desc.graph == GRAPH_REGULAR and (k == 0 or not desc.shared_base):
            paths += [(_STAGE_BASE, k, side) for side in sides]
        if desc.deletions:
            paths += [(_STAGE_DELETE, k, side) for side in sides]
        if desc.kind == KIND_QLBIT_PRODUCT:
            paths.append((_STAGE_COUPLE, k))
        if desc.sigma > 0:
            paths.append((_STAGE_DISORDER, k))
    return paths


def _distinct_factors(desc: ExperimentDescriptor) -> int:
    """Factors built and decomposed per sample: one when they are identical."""
    return 1 if desc.identical_factors else desc.n_factors


def _chunk_matrices(desc: ExperimentDescriptor, indices: range, streams: list[list[RngSeed]],
                    ) -> tuple[list[tuple[list[np.ndarray], tuple | None]], np.ndarray]:
    """Per distinct factor of samples ``indices``, its (S, m, 2) edge rows per side and its
    `_cross_edges` triple (s, u, v) or None, and the (F, S, dim, dim) matrices to decompose;
    a stage runs once over the chunk when `_stage_paths` lists it, the bases once for all sides,
    and a factor without base streams keeps the bases, the same list, before it. A generation
    failure names its sample."""
    count, n, sides = len(streams), desc.n, range(2 if desc.kind == KIND_QLBIT_PRODUCT else 1)
    streams, factors = dict(zip(_stage_paths(desc), zip(*streams))), []  # by path
    mats = np.zeros((_distinct_factors(desc), count, desc._dim, desc._dim))
    for k, a in enumerate(mats):
        if (_STAGE_BASE, k, 0) in streams:
            seeds = sum((streams[_STAGE_BASE, k, side] for side in sides), ())  # side-major
            try:
                bases = list(_d_regular_rows(n, desc.d, seeds).reshape(len(sides), count, -1, 2))
            except GenerationFailureError as exc:
                raise GenerationFailureError(f"sample {indices[exc.item % count]}: {exc}",
                                             exc.restarts) from exc
        elif k == 0:
            bases = [_cycle_rows(n, count) for _ in sides]
        rows = bases if (_STAGE_DELETE, k, 0) not in streams else [_deleted_rows(
            r, desc.deletions, streams[_STAGE_DELETE, k, side]) for side, r in zip(sides, bases)]
        if (_STAGE_COUPLE, k) in streams:
            factors.append((rows, _cross_edges(n, n, desc.p, streams[_STAGE_COUPLE, k])))
            _write_qlbits(a, n, *rows, *factors[-1][1], desc.sign)
        else:
            factors.append((rows, None))
            _write_rows(a, rows[0])
        if (_STAGE_DISORDER, k) in streams:
            _add_disorder(a, desc.sigma, streams[_STAGE_DISORDER, k])
    return factors, mats


def _range_picks(values: list[np.ndarray], n_factors: int, bounds: list[float]) -> np.ndarray:
    """The chunk's samples whose composed top or bottom (the distinct ``values``
    repeated to n_factors) lies within 2*tol of the greatest top or least bottom
    of this chunk and those before it, held in ``bounds`` and updated; ties too."""
    ends = sum(v[:, [0, -1]] for v in values) * (n_factors // len(values))
    top, bottom = ends.T
    bounds[:] = max(bounds[0], top.max()), min(bounds[1], bottom.min())
    tol = _VALUES_ONLY_TOL * max(1.0, abs(bounds[0]), abs(bounds[1]))
    return np.flatnonzero((top >= bounds[0] - 2 * tol) | (bottom <= bounds[1] + 2 * tol))


def require_valid(desc: ExperimentDescriptor) -> ExperimentDescriptor:
    """The descriptor itself; InvalidParameterError with one argument per error otherwise."""
    errors = desc.validate()
    if errors:
        raise InvalidParameterError(*errors)
    return desc


def run_sample(desc: ExperimentDescriptor, sample_index: int) -> SampleResult:
    """Run the full pipeline for one sample, deterministic in the master seed.

    Sample i's seed is ``RngSeed(desc.master_seed).derive(i)``. The sample
    is a chunk of one, its eigenvalues bitwise those of a chunk of many
    solved by `eigh`; a QL bit keeps its eigenvectors. An index that is
    not an integer in [0, 2^32), a derivation path entry, is refused.
    """
    require_valid(desc)
    sample_index = require_int("sample_index", sample_index, 0, 2**32 - 1)
    ((indices, seeds, streams),) = _chunk_streams(desc, sample_index, sample_index + 1)
    factors, mats = _chunk_matrices(desc, indices, streams)
    try:
        spectra = tuple(eigendecompose(a[0], desc.kind == KIND_QLBIT_PRODUCT) for a in mats)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"sample {sample_index}: {exc}") from exc
    built, last = [], None
    for rows, cross in factors:
        if rows is not last:  # a factor that keeps the bases before it keeps their graphs
            last, graphs = rows, [Graph._of_canonical(desc.n, r[0]) for r in rows]
        built.append(graphs[0] if cross is None else
                     QLBit._of_canonical(*graphs, np.stack(cross[1:], axis=1), desc.sign))
    copies = desc.n_factors // len(built)
    return SampleResult(sample_index, int(seeds[0]), tuple(built) * copies, spectra * copies)


def _chunk_streams(desc: ExperimentDescriptor, start: int, stop: int,
                   ) -> Iterator[tuple[range, np.ndarray, list[list[RngSeed]]]]:
    """Samples start..stop-1 in chunks of at most `_CHUNK_VALUES` matrix entries
    across distinct factors, or of one sample: each chunk's indices, sample seeds
    and stage streams. Streams are hashed in three passes per batch of whole
    chunks, at most `_CHUNK_VALUES` streams; each chunk primes a slice."""
    paths = _stage_paths(desc)
    step = max(1, _CHUNK_VALUES // (_distinct_factors(desc) * desc._dim ** 2))
    batch = step * max(1, _CHUNK_VALUES // (step * (1 + len(paths))))
    for first in range(start, stop, batch):
        indices = range(first, min(first + batch, stop))
        (seeds,) = derive_seeds([desc.master_seed], np.arange(first, indices.stop)[:, None])
        stage_seeds = derive_seeds(seeds, paths)
        states = stream_states(stage_seeds)
        for c in range(0, len(indices), step):
            yield (indices[c:c + step], seeds[c:c + step],
                   derive_streams(stage_seeds[c:c + step], states[c:c + step]))


def _chunk_values(desc: ExperimentDescriptor, start: int, stop: int,
                  ) -> Iterator[tuple[range, np.ndarray, list[np.ndarray]]]:
    """Samples start..stop-1 in the chunks of `_chunk_streams`: each chunk's indices,
    sample seeds and (S, dim) eigenvalues per distinct factor, one stacked solve each.
    QL samples are solved values-only, then each chunk's `_range_picks`, over the
    extremes so far, again with `eigh`, for its bits."""
    bounds = [-math.inf, math.inf] if desc.kind == KIND_QLBIT_PRODUCT else None
    for indices, seeds, streams in _chunk_streams(desc, start, stop):
        _, mats = _chunk_matrices(desc, indices, streams)
        try:
            values = [eigendecompose(a, want_vectors=False)[0] for a in mats]
            if bounds and (pick := _range_picks(values, desc.n_factors, bounds)).size:
                for v, a in zip(values, mats):
                    v[pick] = eigendecompose(a[pick])[0]
        except NumericalFailureError as exc:
            named = f"samples {indices.start}..{indices.stop - 1}"
            for j, i in enumerate(indices):  # name the first sample that fails alone
                try:
                    for want in (False, True):
                        eigendecompose(mats[:, j], want)
                except NumericalFailureError as one:
                    exc, named = one, f"sample {i}"
                    break
            raise NumericalFailureError(f"{named}: {exc}") from exc
        yield indices, seeds, values


def _near_edge_rows(chunk: np.ndarray, edges: np.ndarray, tol: float) -> np.ndarray:
    """Rows of ``chunk`` with a value within tol of one of the uniform ``edges``:
    each value's distance to its nearest edge, in bin widths, is found in two
    arrays of the chunk's size."""
    width = (edges[-1] - edges[0]) / (len(edges) - 1)
    off = chunk - edges[0]
    off /= width
    off -= np.rint(off)
    return np.flatnonzero((np.abs(off, out=off) <= tol / width).any(axis=1))


def ensemble_spectrum(desc: ExperimentDescriptor,
                      ) -> tuple[SampleResult, tuple[np.ndarray, np.ndarray], list[int]]:
    """Sample 0, the ``(counts, edges)`` histogram of every sample's eigenvalues, and the seeds.

    Counts sum to n_samples * product_dim: every eigenvalue of every sample
    lands in a bin, and the histogram is bitwise the one of every sample
    run alone. Pass 1 runs sample 0 alone and keeps it whole, then runs the
    others in chunks and keeps only their factor eigenvalues; the bin edges
    follow from their extremes. QL samples after sample 0 are solved
    values-only, and each chunk re-solves with `eigh` the samples that may
    hold its extremes (`_range_picks`), so the edges carry `eigh`'s bits.
    Pass 2 bins sample 0's composed grid, then recomposes samples 1 on
    `_CHUNK_VALUES` values at a time, with the additions of
    `compose_spectra`, and adds up the counts. Each sample is run once, but
    a QL sample with a value within tol of a bin edge, where values-only
    bits may bin apart from `eigh`'s, is run again alone.
    """
    first = run_sample(desc, 0)  # validates; n_samples >= 1, so sample 0 exists
    kept = [np.empty((desc.n_samples, desc._dim)) for _ in range(_distinct_factors(desc))]
    for rows, (values, _) in zip(kept, first.spectra):
        rows[0] = values
    seeds = [first.seed]
    for indices, chunk_seeds, values in _chunk_values(desc, 1, desc.n_samples):
        for rows, v in zip(kept, values):
            rows[indices.start:indices.stop] = v
        seeds += chunk_seeds.tolist()
    kept *= desc.n_factors // len(kept)  # identical factors: one array, repeated
    lo, hi = composed_range(kept)
    edges = histogram_edges(lo, hi, desc.bins)
    counts = histogram_from_values(first.composed, edges)
    step = max(1, _CHUNK_VALUES // first.composed.size)
    tol = _VALUES_ONLY_TOL * max(1.0, abs(lo), abs(hi))
    for start in range(1, desc.n_samples, step):
        chunk = compose_values([rows[start:start + step] for rows in kept])
        if desc.kind == KIND_QLBIT_PRODUCT:
            for j in _near_edge_rows(chunk, edges, tol).tolist():
                chunk[j] = run_sample(desc, start + j).composed
        counts += histogram_from_values(chunk.ravel(), edges)
    return first, (counts, edges), seeds


BUNDLED_EXPERIMENTS: dict[str, ExperimentDescriptor] = {
    d.name: d for d in (
        ExperimentDescriptor("fig2a", KIND_REGULAR_PRODUCT, 5, graph=GRAPH_CYCLE,
                             n_factors=2, n_samples=1, master_seed=101),
        ExperimentDescriptor("fig2b", KIND_REGULAR_PRODUCT, 5, graph=GRAPH_CYCLE,
                             n_factors=3, n_samples=1, master_seed=102),
        ExperimentDescriptor("fig2c", KIND_REGULAR_PRODUCT, 5, graph=GRAPH_CYCLE,
                             n_factors=4, n_samples=1, master_seed=103),
        ExperimentDescriptor("fig3", KIND_REGULAR_PRODUCT, 12, d=8, deletions=4,
                             sigma=2.0, n_factors=3, shared_base=True, n_samples=100,
                             master_seed=300),
        ExperimentDescriptor("fig4a", KIND_QLBIT_PRODUCT, 20, d=15, p=0.2,
                             n_factors=1, n_samples=100, master_seed=401),
        ExperimentDescriptor("fig4b", KIND_QLBIT_PRODUCT, 20, d=15, p=0.2, n_factors=2,
                             identical_factors=True, n_samples=1, master_seed=402),
        ExperimentDescriptor("fig4c", KIND_QLBIT_PRODUCT, 20, d=15, p=0.2,
                             n_factors=2, n_samples=50, master_seed=403),
        ExperimentDescriptor("fig4d", KIND_QLBIT_PRODUCT, 10, d=9, p=0.1, n_factors=3,
                             identical_factors=True, n_samples=1, master_seed=404),
        ExperimentDescriptor("fig4e", KIND_QLBIT_PRODUCT, 12, d=11, p=0.1,
                             n_factors=3, n_samples=50, master_seed=405),
        ExperimentDescriptor("fig4f", KIND_QLBIT_PRODUCT, 7, d=6, p=0.1, n_factors=4,
                             identical_factors=True, n_samples=1, master_seed=406),
    )
}

EXPERIMENT_NOTES: dict[str, str] = {
    "fig2a": "C5 x C5 spectrum (25 states, top eigenvalue 4)",
    "fig2b": "C5 x C5 x C5 spectrum",
    "fig2c": "Fourfold C5 product spectrum",
    "fig3": "Ensemble of 3-fold products of deleted 8-regular graphs, diagonal disorder 2.0",
    "fig4a": "Single QL-bit ensemble (n=20, d=15, p=0.2): emergent pair split by 2*Delta",
    "fig4b": "Product of two identical QL bits, single spectrum",
    "fig4c": "Ensemble of two-QL-bit products: emergent states A, B, B, C",
    "fig4d": "Product of three identical QL bits (n=10, d=9, p=0.1)",
    "fig4e": "Ensemble of three-QL-bit products (n=12, d=11, p=0.1): 8 emergent states",
    "fig4f": "Product of four identical QL bits (n=7, d=6, p=0.1): 38,416 states, 16 emergent",
}
