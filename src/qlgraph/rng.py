"""Seeded, splittable random number generation.

Every random draw in the package flows through an :class:`RngSeed` so that
identical (seed, stream_id) pairs reproduce identical results bit for bit.
The bit generator is a named, stable one (PCG64 keyed through SeedSequence),
never the interpreter's global state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, require_int

_UINT64_MAX = 2**64 - 1
_WORD = 0xFFFF_FFFF


def _seed_sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence(seed, spawn_key=key)``, built from its assembled entropy.

    numpy splits each integer into little-endian 32-bit words, pads the seed
    words with zeros to the pool size 4 when a spawn key follows, and appends
    the key's words. Passing that uint32 array directly gives the same pool.
    """
    words = [seed & _WORD, seed >> 32, 0, 0]
    for k in key:
        words.append(k & _WORD)
        k >>= 32
        while k:
            words.append(k & _WORD)
            k >>= 32
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


@dataclass(frozen=True)
class RngSeed:
    """A reproducible random stream identity.

    ``seed`` is a 64-bit unsigned integer; ``stream_id`` separates
    independent draws made from the same seed (graph generation, edge
    deletion, coupling, disorder, ...).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        seed, stream_id = require_int("seed", self.seed), require_int("stream_id", self.stream_id)
        if not 0 <= seed <= _UINT64_MAX:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if stream_id < 0:
            raise InvalidParameterError(f"stream_id must be non-negative, got {stream_id}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", stream_id)

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.PCG64(_seed_sequence(self.seed, (self.stream_id,))))

    def derive(self, *path: int) -> "RngSeed":
        """Derive an independent child seed from an integer path.

        The child is a pure function of (seed, stream_id, path); distinct
        paths give statistically independent streams. Used to split one
        master seed across ensemble samples, factors, and pipeline stages.
        """
        path = [require_int("derivation path entry", p) for p in path]
        if any(p < 0 for p in path):
            raise InvalidParameterError("derivation path entries must be non-negative")
        # The two words, low first, of generate_state(1, np.uint64).
        lo, hi = _seed_sequence(self.seed, (self.stream_id, *path)).generate_state(2).tolist()
        return RngSeed(lo | hi << 32, 0)
