"""Deterministic seed splitting for every random subsystem."""

from __future__ import annotations

import zlib

import numpy as np


def split_seed(root_seed: int, *labels: str | int) -> np.random.SeedSequence:
    """Derive an independent SeedSequence for a named subsystem.

    Labels are hashed to stable 32-bit keys so the stream depends only on
    (root_seed, labels), never on call order. A negative root_seed raises
    ValueError naming it.
    """
    if int(root_seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got "
                         f"{root_seed}")
    keys = [int(root_seed)]
    for label in labels:
        if isinstance(label, int):
            keys.append(label & 0xFFFFFFFF)
        else:
            keys.append(zlib.crc32(label.encode("utf-8")))
    return np.random.SeedSequence(keys)


def rng_for(root_seed: int, *labels: str | int) -> np.random.Generator:
    return np.random.default_rng(split_seed(root_seed, *labels))


# Steps of batch indices drawn by one integers call: the draw's memory is
# bounded by this block, whatever the step count.
BATCH_BLOCK = 64


def batch_indices(rng: np.random.Generator, n: int, batch: int,
                  steps: int):
    """Yield steps batches of batch indices below n, BATCH_BLOCK steps per
    draw: the stream of one rng.integers(0, n, size=batch) call per step,
    since integers takes one bit-generator draw per value and the bit
    generator keeps any half-used word between calls. Zero steps draw
    nothing."""
    for start in range(0, steps, BATCH_BLOCK):
        yield from rng.integers(0, n,
                                size=(min(BATCH_BLOCK, steps - start), batch))
