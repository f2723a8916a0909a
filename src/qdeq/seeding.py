"""Named random substreams.

Every source of randomness in a run is derived from the single config seed
through a named substream, so each component (data split, circuit build, dropout
masks, Jacobian-penalty gate, bound sampling, ...) is reproducible in isolation.
"""
from __future__ import annotations

import zlib

import numpy as np


def _key_words(name: str) -> list[int]:
    return [zlib.crc32(part.encode("utf-8")) for part in name.split("/")]


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for substream ``name`` (optionally indexed) of ``seed``."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *_key_words(name), *map(int, indices)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def child_seed(seed: int, name: str, *indices: int) -> int:
    """Derived 64-bit integer seed, for APIs that take a plain seed."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *_key_words(name), *map(int, indices)]
    words = np.random.SeedSequence(entropy).generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)
