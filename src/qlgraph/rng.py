"""Seeded, splittable random number generation.

Every random draw in the package flows through an :class:`RngSeed` so that
identical seeds reproduce identical results bit for bit.
The bit generator is a named, stable one (PCG64 keyed through numpy's
SeedSequence hash), never the interpreter's global state. One stream at a
time, `RngSeed` calls ``np.random.SeedSequence`` itself. For the pipeline's
batches the hash is computed here on arrays, one row of entropy words per
stream, so that `derive_seeds` and `stream_states` hash many streams in
one pass. NEP 19 keeps the hash's output stable; the tests hold the batches
bit for bit to ``np.random.SeedSequence``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import require_int

MAX_SEED = 2**64 - 1  # a seed is an integer in [0, 2^64)
_WORD = 0xFFFF_FFFF

# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _multipliers(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash multiplier before each of ``steps`` hash steps and after the last."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _WORD)
    return np.array(out, dtype=np.uint32)


@functools.cache
def _mixing_steps() -> tuple[np.ndarray, np.ndarray]:
    """Hash steps 4..15, which mix each pool word i into the other three in
    order, as (pool, pool) arrays of the multipliers before and after each
    step. Entry (i, i) is a placeholder: word i itself is kept."""
    t = np.array([[0 if j == i else _POOL + 3 * i + j - (j > i) for j in range(_POOL)]
                  for i in range(_POOL)])
    a = _multipliers(_INIT_A, _MULT_A, _POOL * _POOL)
    return a[t], a[t + 1]


def _hash(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, one step per entry of ``before``/``after``."""
    v = (values ^ before) * after
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _generate_state(rows: np.ndarray, lengths: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row[:length]).generate_state(n_words)`` of each row.

    ``rows`` is a (K, width) uint32 array, zero past each row's length and at
    least the pool size wide: a short row hashes zeros into the pool, as
    numpy does. Each word past the pool is mixed in only where a row holds
    it. Returns a (K, n_words) uint32 array.
    """
    extra = rows.shape[1] - _POOL
    a = _multipliers(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    pool = _hash(rows[:, :_POOL], a[:_POOL], a[1:_POOL + 1])
    before, after = _mixing_steps()
    for i in range(_POOL):
        mixed = _mix(pool, _hash(pool[:, i, None], before[i], after[i]))
        mixed[:, i] = pool[:, i]
        pool = mixed
    t = _POOL * _POOL
    words = _hash(rows[:, _POOL:].T[:, :, None], a[t:-1].reshape(extra, 1, _POOL),
                  a[t + 1:].reshape(extra, 1, _POOL))
    for s, w in enumerate(words):
        mixed = _mix(pool, w)
        ended = lengths <= _POOL + s
        mixed[ended] = pool[ended]
        pool = mixed
    b = _multipliers(_INIT_B, _MULT_B, n_words)
    return _hash(pool[:, np.arange(n_words) % _POOL], b[:-1], b[1:])


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of uint32 words, low first, as uint64, as ``generate_state`` reads them."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _precomputed_state() -> type:
    """An ``ISeedSequence`` that hands PCG64 a state hashed here. Built on
    first use, so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PrecomputedState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words: 8 generated words

    return PrecomputedState


def _checked_path(path: Sequence[int]) -> list[int]:
    """A derivation path's entries as ints, each one 32-bit word: an integer in [0, 2^32)."""
    return [require_int("derivation path entry", p, 0, _WORD) for p in path]


@dataclass(frozen=True)
class RngSeed:
    """A reproducible random stream identity.

    ``seed`` is an integer in [0, MAX_SEED]; `derive` splits it into
    independent streams (graph generation, edge deletion, coupling,
    disorder, ...). The generator is PCG64 keyed by
    ``SeedSequence(seed, spawn_key=(0,))``; a seed from `derive_streams`
    carries its state already.
    """

    seed: int
    _state: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0, MAX_SEED))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        if self._state is None:
            return np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(self.seed, spawn_key=(0,))))
        return np.random.Generator(np.random.PCG64(_precomputed_state()(self._state)))

    def derive(self, *path: int) -> "RngSeed":
        """Derive an independent child seed from a path of integers in [0, 2^32).

        The child is a pure function of (seed, path); distinct paths give
        statistically independent streams. Used to split one master seed
        across ensemble samples, factors, and pipeline stages. Its seed is
        ``SeedSequence(seed, spawn_key=(0, *path)).generate_state(1, np.uint64)[0]``.
        """
        key = (0, *_checked_path(path))
        return RngSeed(int(np.random.SeedSequence(self.seed, spawn_key=key)
                           .generate_state(1, np.uint64)[0]))


def _hash_paths(seeds: np.ndarray, paths: Sequence[Sequence[int]], n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(0, *path)).generate_state(n_words)`` of
    each seed and path, seed-major, as a (K * P, n_words) uint32 array. Each
    path entry is one word; paths of different lengths hash together."""
    lengths = np.fromiter(map(len, paths), np.int64, len(paths))
    words = np.fromiter(itertools.chain.from_iterable(map(_checked_path, paths)), np.uint32,
                        int(lengths.sum()))
    # Each row starts with the seed's two words, zero-padded to the pool size
    # as numpy pads them before a spawn key, then the spawn key (0, *path).
    start, width = _POOL + 1, int(lengths.max(initial=0))
    rows = np.zeros((len(seeds), len(paths), start + width), dtype=np.uint32)
    rows[:, :, 0], rows[:, :, 1] = seeds[:, None] & _WORD, seeds[:, None] >> 32
    rows[:, :, start:][:, np.arange(width) < lengths[:, None]] = words
    return _generate_state(rows.reshape(-1, start + width), np.tile(start + lengths, len(seeds)),
                           n_words)


def derive_seeds(seeds: Sequence[int], paths: Sequence[Sequence[int]]) -> np.ndarray:
    """``[[RngSeed(seed).derive(*path).seed for path in paths] for seed in
    seeds]`` as a (K, P) uint64 array, hashed in one pass; paths may be an array."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _as_uint64(_hash_paths(seeds, paths, 2)).reshape(len(seeds), len(paths))


def stream_states(seeds: np.ndarray) -> np.ndarray:
    """Each uint64 seed's PCG64 state, 4 uint64 words on a new last axis, in one pass."""
    return _as_uint64(_hash_paths(seeds.ravel(), [()], 8)).reshape(*seeds.shape, 4)


def derive_streams(seeds: np.ndarray, states: np.ndarray) -> list[list[RngSeed]]:
    """``RngSeed(seed)`` of each entry of a (K, P) uint64 array, as K lists of
    P, each carrying its `stream_states` row, so its `generator()` hashes nothing."""
    return [[_primed(seed, state) for seed, state in zip(row, rows)]
            for row, rows in zip(seeds.tolist(), states)]


def _primed(seed: int, state: np.ndarray) -> RngSeed:
    """RngSeed(seed) carrying its generator's state. It is valid by
    construction: __post_init__'s checks are skipped."""
    child = object.__new__(RngSeed)
    vars(child).update(seed=seed, _state=state)
    return child
