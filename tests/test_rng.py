import hashlib

import numpy as np
import pytest

from qfoliation.errors import ValidationError
from qfoliation.rng import stream_keys, wiener_block
from _checks import wiener_increments


def test_same_seed_same_stream_bitwise():
    a = wiener_increments(42, 3, steps=100, channels=2, step=0.01)
    b = wiener_increments(42, 3, steps=100, channels=2, step=0.01)
    np.testing.assert_array_equal(a, b)


def test_streams_are_distinct():
    a = wiener_increments(42, 0, steps=50, channels=1, step=0.01)
    b = wiener_increments(42, 1, steps=50, channels=1, step=0.01)
    assert not np.array_equal(a, b)
    c = wiener_increments(43, 0, steps=50, channels=1, step=0.01)
    assert not np.array_equal(a, c)


def test_block_matches_per_trajectory_rows():
    seed, step = 7, 0.05
    keys = stream_keys(seed, np.arange(20))
    for first, steps, channels in ((0, 1, 1), (0, 18, 3), (5, 4, 2), (17, 1, 3), (3, 7, 0)):
        block = wiener_block(keys, first, steps, channels, step)
        assert block.shape == (steps, channels, 20)
        for m in (0, 5, 19):
            row = wiener_increments(seed, m, steps=first + steps, channels=channels, step=step)
            for s in range(steps):
                np.testing.assert_array_equal(block[s, :, m], row[first + s])


def test_block_rows_are_contiguous():
    block = wiener_block(stream_keys(1, np.arange(9)), 2, 4, 3, 0.1)
    assert all(block[s, k].flags.c_contiguous for s in range(4) for k in range(3))


def _many_increments(step):
    """10^5 increments: 100 streams times 1000 consecutive counters."""
    return wiener_block(stream_keys(99, np.arange(100)), 0, 1000, 1, step).ravel()


def test_every_part_is_exactly_the_amplitude():
    step = 0.02
    xi = _many_increments(step)
    amp = np.sqrt(step / 2.0)
    np.testing.assert_array_equal(np.abs(xi.real), amp)
    np.testing.assert_array_equal(np.abs(xi.imag), amp)


def test_signs_balance_and_are_uncorrelated():
    xi = _many_increments(0.02)
    se = 1.0 / np.sqrt(len(xi))  # each sign and their product has variance 1
    s1, s2 = np.sign(xi.real), np.sign(xi.imag)
    for signs in (s1, s2, s1 * s2):
        assert abs(signs.mean()) < 3.0 * se


def test_wiener_increment_moments():
    step = 0.02
    xi = _many_increments(step)
    assert abs(xi.mean()) < 3.0 * np.sqrt(step / len(xi))
    # complex increments: E[dxi^2] = 0; dxi^2 = i*step*s1*s2 has variance step^2
    assert abs(np.mean(xi**2)) < 3.0 * step / np.sqrt(len(xi))


def test_key_derivation_rejects_negative():
    with pytest.raises(ValueError):
        stream_keys(-1, [0])


@pytest.mark.parametrize("streams", [[-1], [0, 3, -2], [1.5], [2**64], [True]],
                         ids=["negative", "negative-later", "float", "beyond-uint64", "bool"])
def test_stream_indices_must_be_non_negative_integers(streams):
    with pytest.raises(ValidationError, match="stream indices must be"):
        stream_keys(0, streams)


def test_shapes():
    xi = wiener_increments(0, 0, steps=7, channels=3, step=0.1)
    assert xi.shape == (7, 3)
    block = wiener_block(stream_keys(0, np.arange(5)), 0, 4, 3, 0.1)
    assert block.shape == (4, 3, 5)


# The increments themselves are pinned by digest. splitmix64 is wrapping
# uint64 arithmetic, and each part of an increment is +-sqrt(step/2), one
# correctly rounded square root, so these bits are the same on every IEEE host.
INCREMENTS_SHA256 = {
    0: "0b27ac1b44566bbb342a4501e4721397e344e6e4b185ac06f95ae15c3068de21",
    1: "a3901d4b058cfd182ad0cdc703347feabb003520db65212b403fb561635ec066",
    2999: "da44231020ea2b26694d58354a574abaab203188dffda932db05ff3abf5b02a0",
}
TRAJECTORY_SHA256 = "83ae4915857755ac57ab25cf4bb5ea1450727f09cba5dbf8e4efd57eb5637a24"


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).view(np.uint64).tobytes()).hexdigest()


@pytest.mark.parametrize("step_index", sorted(INCREMENTS_SHA256))
def test_wiener_block_bits_pinned(step_index):
    # hashed in (M, K) order, as one step's block was laid out when pinned
    keys = stream_keys(20260808, np.arange(64))
    alone = wiener_block(keys, step_index, 1, 2, 0.01)[0]
    assert _sha256(alone.T) == INCREMENTS_SHA256[step_index]
    in_run = wiener_block(keys, 0, 3000, 2, 0.01)[step_index]
    assert _sha256(in_run.T) == INCREMENTS_SHA256[step_index]


def test_wiener_increments_bits_pinned():
    xi = wiener_increments(20260808, 5, steps=40, channels=3, step=0.02)
    assert _sha256(xi) == TRAJECTORY_SHA256
