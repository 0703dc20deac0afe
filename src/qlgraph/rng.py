"""Seeded, splittable random number generation.

Every random draw in the package flows through an :class:`RngSeed` so that
identical (seed, stream_id) pairs reproduce identical results bit for bit.
The bit generator is a named, stable one (PCG64 keyed through numpy's
SeedSequence hash), never the interpreter's global state. The hash is
computed here on arrays, one row of entropy words per stream, so that
`derive_streams` hashes many streams in one pass. NEP 19 keeps its output
stable; the tests hold it bit for bit to ``np.random.SeedSequence``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, require_int

_UINT64_MAX = 2**64 - 1
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


def _words(value: int) -> list[int]:
    """A non-negative integer's little-endian 32-bit words, at least one."""
    return [value >> shift & _WORD for shift in range(0, max(value.bit_length(), 1), 32)]


def _padded(word_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Word lists as the rows of a zero-padded uint32 array, and their lengths."""
    lengths = np.array([len(w) for w in word_lists], dtype=np.int64)
    out = np.zeros((len(word_lists), int(lengths.max(initial=0))), dtype=np.uint32)
    out[np.arange(out.shape[1]) < lengths[:, None]] = list(itertools.chain(*word_lists))
    return out, lengths


def _key_rows(prefixes: list[list[int]], paths: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each prefix followed by each path's words, as rows for `_generate_state`,
    and the row lengths: prefix-major, so row p*len(paths)+q joins p and q."""
    (pre, lp), (suf, lq) = _padded(prefixes), _padded(paths)
    rows = np.zeros((len(pre), len(suf), max(_POOL, pre.shape[1] + suf.shape[1])), dtype=np.uint32)
    rows[:, :, :pre.shape[1]] = pre[:, None]
    # Path word j lands just past its row's prefix; padding past a row's length stays zero.
    rows[np.arange(len(pre))[:, None, None], np.arange(len(suf))[:, None],
         lp[:, None, None] + np.arange(suf.shape[1])] = suf
    return rows.reshape(-1, rows.shape[2]), (lp[:, None] + lq).ravel()


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


@dataclass(frozen=True)
class RngSeed:
    """A reproducible random stream identity.

    ``seed`` is a 64-bit unsigned integer; ``stream_id`` separates
    independent draws made from the same seed (graph generation, edge
    deletion, coupling, disorder, ...). The generator is PCG64 keyed by
    ``SeedSequence(seed, spawn_key=(stream_id,))``; a seed from
    `derive_streams` carries its state already.
    """

    seed: int
    stream_id: int = 0
    _state: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        seed, stream_id = require_int("seed", self.seed), require_int("stream_id", self.stream_id)
        if not 0 <= seed <= _UINT64_MAX:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream_id < 0:
            raise InvalidParameterError(f"stream_id must be non-negative, got {stream_id}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", stream_id)

    def _prefix(self) -> list[int]:
        """The entropy words before a path: the seed's two words, zero-padded
        to the pool size as numpy pads them before a spawn key, then the
        stream id's."""
        return [self.seed & _WORD, self.seed >> 32, 0, 0, *_words(self.stream_id)]

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        state = self._state
        if state is None:
            state = _as_uint64(_generate_state(*_key_rows([self._prefix()], [[]]), 8))[0]
        return np.random.Generator(np.random.PCG64(_precomputed_state()(state)))

    def derive(self, *path: int) -> "RngSeed":
        """Derive an independent child seed from an integer path.

        The child is a pure function of (seed, stream_id, path); distinct
        paths give statistically independent streams. Used to split one
        master seed across ensemble samples, factors, and pipeline stages.
        """
        ((child,),) = derive_streams([self], [path])
        return child


def derive_streams(parents: Sequence[RngSeed], paths: Sequence[Sequence[int]],
                   primed: bool = True) -> list[list[RngSeed]]:
    """``[[parent.derive(*path) for path in paths] for parent in parents]``,
    hashed in one pass. A ``primed`` child also carries its generator's
    state, hashed in a second pass; an unprimed one hashes it if asked.

    Child (parent, path) has seed ``SeedSequence(parent.seed, spawn_key=
    (parent.stream_id, *path)).generate_state(1, np.uint64)`` and stream id
    0. Path entries of 2^32 and more take several words; rows of different
    lengths hash together.
    """
    words = []
    for path in paths:
        path = [require_int("derivation path entry", p) for p in path]
        if any(p < 0 for p in path):
            raise InvalidParameterError("derivation path entries must be non-negative")
        words.append([w for p in path for w in _words(p)])
    if not parents or not paths:
        return [[] for _ in parents]
    pairs = _generate_state(*_key_rows([p._prefix() for p in parents], words), 2)
    # Each child's stream 0: its seed's two words, zero-padded, then stream id 0.
    rows = np.zeros((len(pairs), _POOL + 1), dtype=np.uint32)
    rows[:, :2] = pairs
    states = (_as_uint64(_generate_state(rows, np.full(len(rows), _POOL + 1), 8)) if primed
              else [None] * len(rows))
    # Children are valid by construction: skip __post_init__'s checks.
    children = []
    for seed, state in zip(_as_uint64(pairs).ravel().tolist(), states):
        child = object.__new__(RngSeed)
        vars(child).update(seed=seed, stream_id=0, _state=state)
        children.append(child)
    return [children[i:i + len(paths)] for i in range(0, len(children), len(paths))]
