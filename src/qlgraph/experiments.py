"""Declarative experiment descriptors and the seeded generation pipeline.

A descriptor captures one experiment (a figure recipe): the factor family,
its parameters, the factor count, disorder, and sampling controls. One
master seed drives everything; per-sample and per-stage streams are derived
from it, so samples are independent and any parallel evaluation order gives
identical results.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .ensembles import EnsembleHistogram, histogram_edges, histogram_from_values
from .errors import GenerationFailureError, InvalidParameterError, NumericalFailureError
from .graphs import (Graph, apply_diagonal_disorder, cycle_graph, d_regular_random,
                     drop_random_edges, edge_adjacency, is_connected)
from .products import (ComposedSpectrum, compose_spectra, compose_values, composed_range,
                       emergent_component_counts)
from .qlbits import (EmergentPair, QLBit, SplittingPrediction, cross_edges, emergent_pair,
                     predict_splitting, qlbit_matrix)
from .rng import RngSeed, derive_streams
from .spectra import Spectrum, eigendecompose

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

# Histogram edges are float64: 10^6 bins take 8 MB.
MAX_BINS = 1_000_000
# Diagonal disorder past this is refused: about 200 orders of magnitude below
# float64 overflow, so the draws, their sums over factors and the histogram
# range stay finite.
MAX_SIGMA = 1e100

# `ensemble_spectrum` recomposes and bins this many values at a time, or one
# whole sample when that is larger: its memory does not grow with n_samples.
# Samples are built and eigendecomposed in chunks of at most this many matrix
# entries across their distinct factors, or of one sample when that is larger.
_CHUNK_VALUES = 2**14

# Modelled peak memory of a run, refused past this. With dim = 2n for a QL bit
# and n otherwise, states = dim^n_factors, and entries = dim^2 times the
# distinct factors of a sample, the model adds up one chunk of at most
# max(_CHUNK_VALUES, entries) matrix entries, 8 bytes an entry each for the
# factor matrices and their stacked copy and, for QL bits, which keep
# eigenvectors, for the solver's vectors, each sample's copy of them and
# sample 0's kept copy, plus at most 8 bytes an entry for the edge rows each
# factor keeps (16 bytes a row; under n^2/2 rows a base and n^2 for a
# coupling, against (2n)^2 entries of a QL bit); sample 0, kept whole, with
# its composed values, sort and label arrays, 72*states; one chunk of at most
# max(_CHUNK_VALUES, states) values and np.histogram's sorted copy of it, 16
# bytes a value; and per sample its factor eigenvalues, 8*n_factors*dim, and
# its seed as an int and a line of metadata JSON, at most _SEED_BYTES.
MAX_BYTES = 2**30
_SEED_BYTES = 128

# Artifact file stems: no path separators, no leading dot, and at most 200
# characters, so the longest staged file name stays within 255.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,199}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _too_long(value) -> str:
    """Names a value without a repr, an int past sys.get_int_max_str_digits()
    or one holding such an int: the int by its digit count."""
    if not _is_int(value):
        return f"a {type(value).__name__} holding such an int"
    digits = round(math.log10(abs(value)))  # off by at most one
    digits += (10**digits <= abs(value)) - (10**(digits - 1) > abs(value))
    return f"an int of {digits} digits"


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
        """The violations, found once per descriptor: its fields never change."""
        errors = self._type_errors()
        if errors:
            return tuple(errors)
        if not _NAME_PATTERN.fullmatch(self.name):
            errors.append(f"name must match {_NAME_PATTERN.pattern}, got {self.name!r}")
        if self.kind not in KINDS:
            errors.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.graph not in GRAPH_FAMILIES:
            errors.append(f"graph must be one of {GRAPH_FAMILIES}, got {self.graph!r}")
        if self.graph == GRAPH_CYCLE:
            if self.n < 3:
                errors.append(f"cycle graphs need n >= 3, got {self.n}")
            if self.d is not None:
                errors.append("d does not apply to cycle graphs")
        else:
            if self.d is None:
                errors.append("d is required for d-regular graphs")
            elif self.d < 1 or self.n <= self.d:
                errors.append(f"need n > d >= 1, got n={self.n}, d={self.d}")
            elif (self.n * self.d) % 2 != 0:
                errors.append(f"n*d must be even, got n={self.n}, d={self.d}")
        max_edges = self.n if self.graph == GRAPH_CYCLE else (
            self.n * self.d // 2 if self.d else 0)
        if self.deletions < 0 or (not errors and self.deletions > max_edges):
            errors.append(f"deletions must be in [0, {max_edges}], got {self.deletions}")
        if not 0.0 <= self.p <= 1.0:
            errors.append(f"p must be in [0,1], got {self.p}")
        if self.kind != KIND_QLBIT_PRODUCT and self.p != 0.0:
            errors.append(f"p applies only to {KIND_QLBIT_PRODUCT}")
        if self.sign not in (1, -1):
            errors.append(f"sign must be +1 or -1, got {self.sign}")
        if self.n_factors < 1:
            errors.append(f"n_factors must be positive, got {self.n_factors}")
        if self.kind == KIND_SINGLE and self.n_factors != 1:
            errors.append(f"{KIND_SINGLE} requires n_factors == 1")
        if self.sigma < 0:
            errors.append(f"sigma must be non-negative, got {self.sigma}")
        elif self.sigma > MAX_SIGMA:
            errors.append(f"sigma must be at most {MAX_SIGMA:g}, got {self.sigma}")
        if self.n_samples < 1:
            errors.append(f"n_samples must be positive, got {self.n_samples}")
        if not 1 <= self.bins <= MAX_BINS:
            errors.append(f"bins must be in [1, {MAX_BINS}], got {self.bins}")
        if not 0 <= self.master_seed < 2**64:
            errors.append(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if not errors and self._over_budget():
            errors.append(f"modelled memory exceeds {MAX_BYTES} bytes: n={self.n}, "
                          f"n_factors={self.n_factors}, n_samples={self.n_samples}")
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
                    + 16 * max(_CHUNK_VALUES, states)
                    + self.n_samples * (8 * k * dim + _SEED_BYTES) > MAX_BYTES):
                return True
        return False

    def _type_errors(self) -> list[str]:
        """Fields whose value is not of the annotated type; floats must be finite,
        and every value printable: the range checks name the values they refuse."""
        errors = []
        for f in fields(self):
            value = getattr(self, f.name)
            expected = f.type.removesuffix(" | None")
            if value is None and expected != f.type:
                continue
            check, expectation = _FIELD_CHECKS[expected]
            try:
                shown = repr(value)
            except ValueError:
                errors.append(f"{f.name} must be {expectation} short enough to print, "
                              f"got {_too_long(value)}")
                continue
            if not check(value):
                errors.append(f"{f.name} must be {expectation}, got {shown}")
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
class FactorResult:
    """One realized factor: its spectrum and the read-only edge rows it was
    built from, a graph's on ``n_vertices = (n,)`` or a QL bit's two bases'
    on ``(n1, n2)`` and then its cross edges, of weight ``sign``. The graph or
    QL bit and the diagnostics are built on first read."""

    n_vertices: tuple[int, ...]
    edges: tuple[np.ndarray, ...]
    spectrum: Spectrum
    sign: int = 1

    @property
    def emergent_indices(self) -> frozenset[int]:
        """Eigen-indices of the emergent states: a QL bit's top two, else the top one."""
        return frozenset({0} if len(self.n_vertices) == 1 else {0, 1})

    @cached_property
    def graph(self) -> Graph | None:
        """The graph of a factor that is no QL bit."""
        return Graph(self.n_vertices[0], self.edges[0]) if len(self.n_vertices) == 1 else None

    @cached_property
    def qlbit(self) -> QLBit | None:
        """The QL bit of a factor that is one."""
        if len(self.n_vertices) == 1:
            return None
        (n1, n2), (edges_1, edges_2, cross) = self.n_vertices, self.edges
        return QLBit(Graph(n1, edges_1), Graph(n2, edges_2), cross, self.sign)

    @cached_property
    def connected(self) -> bool:
        """Whether the graph, or the QL bit's blocks and cross edges, are connected."""
        q = self.qlbit
        if q is None:
            return is_connected(self.graph)
        n1 = q.basis_1.n_vertices
        return is_connected(Graph(q.n_vertices, np.concatenate(
            [q.basis_1.edges, q.basis_2.edges + n1, q.coupling_edges + (0, n1)])))

    @cached_property
    def emergent(self) -> EmergentPair | None:
        """A QL bit's emergent pair, computed on first use."""
        return None if self.qlbit is None else emergent_pair(self.qlbit, self.spectrum)

    @cached_property
    def splitting(self) -> SplittingPrediction | None:
        """The Δ = n_c/n prediction for a QL bit, computed on first use."""
        return None if self.qlbit is None else predict_splitting(self.qlbit)


@dataclass(frozen=True)
class SampleResult:
    """One pipeline sample: factors, composed spectrum, and emergent counts."""

    index: int
    seed: int  # derived from the master seed; RngSeed(seed) roots every stream of the sample
    factors: tuple[FactorResult, ...]

    @property
    def emergent_index_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(f.emergent_indices for f in self.factors)

    @cached_property
    def composed(self) -> ComposedSpectrum:
        """The composed spectrum of the factors, built on first use."""
        return compose_spectra([f.spectrum for f in self.factors])

    @cached_property
    def emergent_counts(self) -> np.ndarray:
        """Per-flat-index emergent component count k, built on first use."""
        return emergent_component_counts(self.composed, self.emergent_index_sets)


# A sample's stage streams, keyed by stage path: (stage, factor, side) or (stage, factor).
Streams = dict[tuple[int, ...], RngSeed]


def _stage_paths(desc: ExperimentDescriptor) -> list[tuple[int, ...]]:
    """The path of every stage stream one sample consumes, in the order
    `_sample_matrices` consumes them: per distinct factor, its d-regular
    bases (factor 0's alone with ``shared_base``), its deletions, its
    coupling and its disorder, each per side where it has sides."""
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


def _base_edges(desc: ExperimentDescriptor, streams: Streams, k: int, side: int) -> np.ndarray:
    if desc.graph == GRAPH_CYCLE:
        return cycle_graph(desc.n).edges
    return d_regular_random(desc.n, desc.d, streams[_STAGE_BASE, k, side]).edges


def _factor_matrix(desc: ExperimentDescriptor, streams: Streams, k: int,
                   bases: list[np.ndarray]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Factor k's `FactorResult.edges`, from its bases' edge rows, and the
    matrix to decompose."""
    if desc.deletions:
        bases = [drop_random_edges(edges, desc.deletions, streams[_STAGE_DELETE, k, side])
                 for side, edges in enumerate(bases)]
    if desc.kind == KIND_QLBIT_PRODUCT:
        edges = (*bases, cross_edges(desc.n, desc.n, desc.p, streams[_STAGE_COUPLE, k]))
        a = qlbit_matrix(desc.n, desc.n, *edges, desc.sign)
    else:
        edges = tuple(bases)
        a = edge_adjacency(desc.n, *edges)
    for rows in edges:
        rows.flags.writeable = False
    if desc.sigma > 0:
        a = apply_diagonal_disorder(a, desc.sigma, streams[_STAGE_DISORDER, k])
    return edges, a


def _distinct_factors(desc: ExperimentDescriptor) -> int:
    """Factors built and decomposed per sample: one when they are identical."""
    return 1 if desc.identical_factors else desc.n_factors


def _sample_matrices(desc: ExperimentDescriptor, streams: Streams,
                     ) -> list[tuple[tuple[np.ndarray, ...], np.ndarray]]:
    """`_factor_matrix` of each distinct factor of one sample: only factor 0 when
    ``identical_factors``. With ``shared_base`` every factor starts from the
    bases generated for factor 0, which are generated once; deletions stay per
    factor."""
    sides = range(2 if desc.kind == KIND_QLBIT_PRODUCT else 1)
    first_bases = [_base_edges(desc, streams, 0, side) for side in sides]
    return [_factor_matrix(desc, streams, k, first_bases if k == 0 or desc.shared_base else
                           [_base_edges(desc, streams, k, side) for side in sides])
            for k in range(_distinct_factors(desc))]


def _run_chunk(desc: ExperimentDescriptor, indices: range) -> Iterator[SampleResult]:
    """Samples `indices`, stage by stage: the sample seeds, unprimed, in one
    hash pass and every stage stream in another, every sample's factor
    matrices, then one stacked eigendecomposition per distinct factor, then
    each sample's results, yielded one at a time."""
    n_vertices = (desc.n,) * (2 if desc.kind == KIND_QLBIT_PRODUCT else 1)
    (seeds,) = derive_streams([RngSeed(desc.master_seed)], [(i,) for i in indices], primed=False)
    paths = _stage_paths(desc)
    built = []
    for i, streams in zip(indices, derive_streams(seeds, paths)):
        try:
            built.append(_sample_matrices(desc, dict(zip(paths, streams))))
        except GenerationFailureError as exc:
            raise GenerationFailureError(f"sample {i}: {exc}", exc.restarts) from exc
    try:
        spectra = [eigendecompose(np.stack([factors[k][1] for factors in built]),
                                  want_vectors=desc.kind == KIND_QLBIT_PRODUCT)
                   for k in range(len(built[0]))]
    except NumericalFailureError as exc:
        named = (f"sample {indices.start}" if len(indices) == 1
                 else f"samples {indices.start}..{indices.stop - 1}")
        raise NumericalFailureError(f"{named}: {exc}") from exc
    for j, (i, seed, factors) in enumerate(zip(indices, seeds, built)):
        results = [FactorResult(n_vertices, edges, slot[j], desc.sign)
                   for (edges, _), slot in zip(factors, spectra)]
        if desc.identical_factors:
            results *= desc.n_factors
        yield SampleResult(i, seed.seed, tuple(results))


def require_valid(desc: ExperimentDescriptor) -> ExperimentDescriptor:
    """The descriptor itself; InvalidParameterError with one argument per error otherwise."""
    errors = desc.validate()
    if errors:
        raise InvalidParameterError(*errors)
    return desc


def run_sample(desc: ExperimentDescriptor, sample_index: int) -> SampleResult:
    """Run the full pipeline for one sample, deterministic in the master seed.

    Sample i's seed is ``RngSeed(desc.master_seed).derive(i)``. The sample
    is a chunk of one: `iter_samples` gives bitwise the same result.
    """
    require_valid(desc)
    (sample,) = _run_chunk(desc, range(sample_index, sample_index + 1))
    return sample


def _samples_from(desc: ExperimentDescriptor, start: int) -> Iterator[SampleResult]:
    """Samples start..n_samples-1, in chunks of at most `_CHUNK_VALUES` matrix
    entries across their distinct factors, and of at least one sample."""
    step = max(1, _CHUNK_VALUES // (_distinct_factors(desc) * desc._dim ** 2))
    for first in range(start, desc.n_samples, step):
        yield from _run_chunk(desc, range(first, min(first + step, desc.n_samples)))


def iter_samples(desc: ExperimentDescriptor) -> Iterator[SampleResult]:
    """Every sample in index order, each equal to `run_sample` on its index."""
    require_valid(desc)
    yield from _samples_from(desc, 0)


def ensemble_spectrum(desc: ExperimentDescriptor,
                      ) -> tuple[SampleResult, EnsembleHistogram, list[int]]:
    """Sample 0, the histogram of every eigenvalue of every sample, and the sample seeds.

    Counts sum to n_samples * product_dim: every eigenvalue of every sample
    lands in a bin. Each sample is run once. Pass 1 runs sample 0 alone and
    keeps it whole, then runs the others in chunks and keeps only their
    factor eigenvalues; the bin edges follow from their extremes. Pass 2
    bins sample 0's composed grid, then recomposes samples 1 on
    `_CHUNK_VALUES` values at a time, with the additions of
    `compose_spectra`, and adds up the counts.
    """
    first = run_sample(desc, 0)  # validates; n_samples >= 1, so sample 0 exists
    kept = [np.empty((desc.n_samples, f.spectrum.dim)) for f in first.factors]
    seeds = []
    for sample in itertools.chain([first], _samples_from(desc, 1)):
        for rows, f in zip(kept, sample.factors):
            rows[sample.index] = f.spectrum.eigenvalues
        seeds.append(sample.seed)
    edges = histogram_edges(*composed_range(kept), desc.bins)
    counts = histogram_from_values(first.composed.values, edges)
    step = max(1, _CHUNK_VALUES // first.composed.size)
    for start in range(1, desc.n_samples, step):
        chunk = compose_values([rows[start:start + step] for rows in kept])
        counts += histogram_from_values(chunk.ravel(), edges)
    return first, EnsembleHistogram(edges, counts), seeds


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
