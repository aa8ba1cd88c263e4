"""Seed derivation: stable, label-separated random streams."""

import numpy as np
import pytest

from taskswitch.seeding import BATCH_BLOCK, batch_indices, rng_for, split_seed


def test_same_labels_same_stream():
    a = rng_for(0, "task-data", 1).normal(size=8)
    b = rng_for(0, "task-data", 1).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_different_labels_different_streams():
    a = rng_for(0, "task-data", 0).normal(size=8)
    b = rng_for(0, "task-data", 1).normal(size=8)
    c = rng_for(0, "base-data").normal(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_root_seed_separates():
    a = rng_for(0, "kmeans").integers(0, 1 << 30, size=4)
    b = rng_for(1, "kmeans").integers(0, 1 << 30, size=4)
    assert not np.array_equal(a, b)


def test_split_seed_entropy_is_stable():
    s1 = split_seed(7, "metric-init")
    s2 = split_seed(7, "metric-init")
    assert list(s1.entropy) == list(s2.entropy)


def test_label_hashing_matches_documented_scheme():
    # Int labels enter the seed key list masked to 32 bits; string labels
    # enter as their crc32. Both are order-sensitive.
    import zlib

    s = split_seed(5, "x", 70)
    assert list(s.entropy) == [5, zlib.crc32(b"x"), 70]
    s2 = split_seed(5, 70, "x")
    assert list(s2.entropy) != list(s.entropy)


def test_negative_int_label_masked_to_32_bits():
    s = split_seed(0, -1)
    assert list(s.entropy) == [0, 0xFFFFFFFF]


def test_negative_root_seed_is_named():
    with pytest.raises(ValueError, match="^seed must be a non-negative "
                       "integer, got -3$"):
        split_seed(-3, "x")


@pytest.mark.parametrize("n", [3, 7, 100, 2000, 2 ** 31 + 5, 2 ** 40])
@pytest.mark.parametrize("batch", [1, 5, 32])
def test_batch_blocks_give_the_per_step_stream(n, batch):
    # across two block boundaries and a part block; the generator is left
    # where per-step draws leave it
    steps = 2 * BATCH_BLOCK + 3
    per_step, blocked = rng_for(4, "b"), rng_for(4, "b")
    got = list(batch_indices(blocked, n, batch, steps))
    assert len(got) == steps
    for idx in got:
        np.testing.assert_array_equal(
            idx, per_step.integers(0, n, size=batch))
    assert blocked.integers(0, 1 << 62) == per_step.integers(0, 1 << 62)


def test_zero_steps_draw_nothing():
    rng = rng_for(4, "b")
    assert list(batch_indices(rng, 0, 8, 0)) == []
    assert rng.integers(0, 1 << 62) == rng_for(4, "b").integers(0, 1 << 62)
