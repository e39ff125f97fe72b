"""Convolution engine tests against a naive quadruple-loop reference."""

import dataclasses
import math
import re

import numpy as np
import pytest

from momentfuse.filters import (
    Kernel3,
    convolve3,
    high_boost_mask,
    identity_kernel,
    preprocess,
)


def naive_convolve3(img, coeffs, scale):
    """Independent reference: explicit loops over pixels and mask cells,
    replicating the border by index clamping."""
    h, w = img.shape
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    acc += coeffs[dr + 1][dc + 1] * img[rr, cc]
            out[r, c] = scale * acc
    return out


def test_high_boost_mask_coefficients():
    k = high_boost_mask()
    assert k.coeffs[1, 1] == 17.9
    neighbors = k.coeffs.copy()
    neighbors[1, 1] = -1.0
    assert np.all(neighbors == -1.0)
    assert k.scale == pytest.approx(1.0 / 9.0)


def test_high_boost_dc_gain():
    assert high_boost_mask().dc_gain() == pytest.approx((17.9 - 8.0) / 9.0)
    assert high_boost_mask().dc_gain() == pytest.approx(1.1)


def test_impulse_recovers_scaled_mask():
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    k = high_boost_mask()
    out = convolve3(img, k)
    # The response is applied as written (no flip); the mask is symmetric, so
    # the impulse response equals the scaled mask either way.
    assert np.allclose(out[1:4, 1:4], k.scale * k.coeffs, atol=1e-15)
    assert np.allclose(naive_convolve3(img, k.coeffs, k.scale), out, atol=1e-15)


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(9, 13))
    assert np.array_equal(convolve3(img, identity_kernel()), img)


def test_constant_input_times_dc_gain():
    out = convolve3(np.full((6, 7), 100.0), high_boost_mask())
    assert np.allclose(out, 110.0, atol=1e-9)


def test_matches_naive_reference_on_random_images():
    rng = np.random.default_rng(42)
    k = high_boost_mask()
    for _ in range(10):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        img = rng.uniform(-50.0, 300.0, size=(h, w))
        assert np.allclose(convolve3(img, k), naive_convolve3(img, k.coeffs, k.scale),
                           atol=1e-12)


def test_asymmetric_kernel_matches_naive_reference():
    # Guards the as-written (correlation) orientation, which the symmetric
    # default mask cannot distinguish.
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=(3, 3))
    k = Kernel3(coeffs, scale=0.7)
    img = rng.uniform(0.0, 255.0, size=(8, 10))
    assert np.allclose(convolve3(img, k), naive_convolve3(img, coeffs, 0.7), atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(17)
    k = high_boost_mask()
    for _ in range(5):
        x = rng.uniform(0.0, 255.0, size=(10, 10))
        y = rng.uniform(0.0, 255.0, size=(10, 10))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        lhs = convolve3(a * x + b * y, k)
        rhs = a * convolve3(x, k) + b * convolve3(y, k)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_shift_covariance_in_interior():
    rng = np.random.default_rng(23)
    img = rng.uniform(0.0, 255.0, size=(12, 12))
    shifted = np.roll(img, shift=1, axis=1)
    out = convolve3(img, high_boost_mask())
    out_shifted = convolve3(shifted, high_boost_mask())
    # Columns far enough from both borders see the same neighborhood.
    assert np.allclose(out_shifted[:, 3:-3], np.roll(out, 1, axis=1)[:, 3:-3], atol=1e-12)


def test_convolve_rejects_non_finite():
    with pytest.raises(ValueError):
        convolve3(np.array([[np.nan, 1.0]]), high_boost_mask())


def test_kernel_rejects_bad_shape_and_values():
    with pytest.raises(ValueError):
        Kernel3(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Kernel3(np.full((3, 3), np.inf))
    # "0.5" and None raised numpy's TypeError, and True scaled by 1.
    for scale in ("0.5", True, np.True_, None):
        message = f"scale must be a real number, got {scale!r}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            Kernel3(np.zeros((3, 3)), scale=scale)


def test_kernel_cannot_change_after_its_checks():
    # Each change used to pass unchecked: a 5x5 mask was applied, a NaN
    # coefficient made every sample NaN and an infinite scale none finite.
    img = np.arange(30.0).reshape(5, 6)
    k = high_boost_mask()
    expected = convolve3(img, k)
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.coeffs = np.ones((5, 5))
    with pytest.raises(ValueError, match="read-only"):
        k.coeffs[1, 1] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.scale = math.inf
    assert np.array_equal(convolve3(img, k), expected)


def test_kernel_keeps_its_own_copy_of_the_coefficients():
    coeffs = np.full((3, 3), -1.0)
    coeffs[1, 1] = 9.0
    k = Kernel3(coeffs, scale=0.5)
    assert coeffs.flags.writeable and not np.shares_memory(coeffs, k.coeffs)
    coeffs[1, 1] = np.nan
    assert k.coeffs[1, 1] == 9.0 and k.dc_gain() == 0.5


def test_masks_compare_and_hash_by_identity():
    k, other = high_boost_mask(), high_boost_mask()
    assert np.array_equal(k.coeffs, other.coeffs) and k.scale == other.scale
    # A field-wise == raised on the truth of the coefficient comparison.
    assert k == k and k != other
    assert hash(k) == hash(k) and len({k, other}) == 2


def test_preprocess_constant_images():
    assert np.allclose(preprocess(np.full((5, 5), 100, dtype=np.uint8)), 110.0, atol=1e-9)
    assert np.allclose(preprocess(np.zeros((5, 5), dtype=np.uint8)), 0.0, atol=1e-15)


def test_preprocess_preserves_dimensions():
    img = np.zeros((7, 11), dtype=np.uint8)
    assert preprocess(img).shape == (7, 11)


def test_preprocess_step_edge_over_and_undershoot():
    img = np.zeros((8, 16), dtype=np.uint8)
    img[:, 8:] = 200
    out = preprocess(img)
    ref = naive_convolve3(img.astype(float), high_boost_mask().coeffs, 1.0 / 9.0)
    assert np.allclose(out, ref, atol=1e-12)
    # Flat far from the edge, ringing next to it.
    assert np.allclose(out[:, :6], 0.0, atol=1e-9)
    assert np.allclose(out[:, 10:], 220.0, atol=1e-9)
    assert np.all(out[:, 7] < 0.0)       # undershoot on the dark side
    assert np.all(out[:, 8] > 220.0)     # overshoot on the bright side


def test_preprocess_tracks_scaled_input_far_from_edges():
    # A slowly varying raster is amplified by the DC gain away from borders.
    img = np.full((9, 9), 80, dtype=np.uint8)
    out = preprocess(img)
    assert np.allclose(out, 1.1 * img, atol=1e-9)


def test_preprocess_center_override():
    out = preprocess(np.full((5, 5), 90, dtype=np.uint8), center=17.0)
    assert np.allclose(out, 90.0, atol=1e-9)  # center 17 gives unit DC gain


@pytest.mark.parametrize("center", ["17.9", True, np.False_, None, 1j])
def test_high_boost_mask_rejects_a_non_number_or_bool(center):
    # numpy parsed "17.9" on assignment, and True gave a center of 1.0.
    img = np.zeros((3, 3), dtype=np.uint8)
    for stage in (high_boost_mask, lambda center: preprocess(img, center)):
        with pytest.raises(ValueError, match="^center must be a real number, got "):
            stage(center)
