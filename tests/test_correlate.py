"""Property tests of the shared stencil primitive against an index-clamping
oracle and a summation-order oracle.

In the clamping tests rasters and weights hold small integers, so every
partial sum is an exact float64 integer and the comparison can be exact in
any summation order. The order tests use non-integer data, where only the
documented order gives the same bits.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentfuse.filters import identity_kernel
from momentfuse.image import accumulate, correlate
from momentfuse.synthetic import _gaussian_kernel1d


def naive_correlate(img, weights):
    """Independent reference: per pixel, loop the weight cells and clamp
    reads to the raster (replicate border)."""
    h, w = img.shape
    kh, kw = weights.shape
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    rr = min(max(r + i - kh // 2, 0), h - 1)
                    cc = min(max(c + j - kw // 2, 0), w - 1)
                    acc += weights[i, j] * img[rr, cc]
            out[r, c] = acc
    return out


rasters = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(-255, 255).map(float)))
odd_sides = st.sampled_from([1, 3, 5])
weight_arrays = st.tuples(odd_sides, odd_sides).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.integers(-9, 9).map(float)))


@settings(max_examples=300, deadline=None)
@given(img=rasters, weights=weight_arrays)
@example(img=np.array([[7.0]]), weights=np.ones((5, 3)))
def test_matches_clamping_oracle(img, weights):
    # Weight shapes include k x 1, 1 x k and kernels larger than the raster.
    out = correlate(img, weights)
    assert out.shape == img.shape
    assert np.array_equal(out, naive_correlate(img, weights))


@settings(max_examples=100, deadline=None)
@given(img=rasters, data=st.data())
def test_column_then_row_pass_equals_outer_product_kernel(img, data):
    # The separable blur runs as two 1-D passes; with small-integer samples
    # the composition is exact in any summation order.
    side = data.draw(odd_sides)
    taps = data.draw(arrays(np.float64, side, elements=st.integers(-9, 9).map(float)))
    assert np.array_equal(correlate(correlate(img, taps[:, None]), taps[None, :]),
                          correlate(img, np.outer(taps, taps)))


def row_major_correlate(img, weights):
    """The documented order: over the weight cells in row-major order,
    skipping zeros, acc = acc + w * (the padded raster shifted by the cell)."""
    h, w = img.shape
    kh, kw = weights.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    acc = np.zeros((h, w))
    for i in range(kh):
        for j in range(kw):
            if weights[i, j] != 0.0:
                acc = acc + weights[i, j] * padded[i:i + h, j:j + w]
    return acc


real_rasters = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))))
mixed_weights = st.tuples(odd_sides, odd_sides).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 1.0, -1.0]),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))))
# Kernels whose first nonzero cell follows zero cells or is not +-1.
blur_taps = [_gaussian_kernel1d(sigma) for sigma in (0.6, 1.3, 2.0)]
leading_zero_weights = st.sampled_from(
    [identity_kernel().coeffs, -identity_kernel().coeffs, 2.5 * identity_kernel().coeffs,
     np.zeros((3, 3))]
    + [taps[:, None] for taps in blur_taps] + [taps[None, :] for taps in blur_taps])


@settings(max_examples=300, deadline=None)
@given(img=real_rasters, weights=st.one_of(leading_zero_weights, mixed_weights))
@example(img=np.array([[0.1, -0.7], [1e6, 3.3]]),
         weights=np.array([[1.0, -1.0, 0.3], [0.0, -1.0, 1.0], [-2.5, 1.0, 0.0]]))
@example(img=np.array([[-0.0, 0.0], [-0.0, -0.0]]), weights=identity_kernel().coeffs)
def test_matches_row_major_order_bit_for_bit(img, weights):
    # Non-integer sums round differently in another order, so this pins the
    # order itself, and that the +-1 cells add or subtract the cell exactly.
    # The first nonzero cell is written, not added to a zero-filled start, so
    # it must give 0.0 + w * x: 0.0, not -0.0, where w * x is -0.0. Bytes
    # tell the two zeros apart, and np.array_equal does not.
    assert correlate(img, weights).tobytes() == row_major_correlate(img, weights).tobytes()



# Normal floats away from zero, so no product or sum underflows under
# np.errstate(all="raise"); zeros of both signs still appear.
normal_floats = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3))
normal_rasters = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=normal_floats))
sides = st.sampled_from([1, 3, 5, 7])  # 7 exceeds small rasters
normal_weights = st.tuples(sides, sides).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 1.0, -1.0]), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))))


@settings(max_examples=300, deadline=None)
@given(img=normal_rasters, weights=st.one_of(leading_zero_weights, normal_weights))
@example(img=np.array([[7.5]]), weights=np.array([[0.5, -1.0, 2.0]]))
@example(img=np.array([[7.5]]), weights=np.array([[0.5], [-1.0], [2.0]]))
@example(img=np.array([[7.5]]), weights=np.full((7, 5), 0.3))
def test_accumulate_writes_every_element_and_valid_columns_match_row_major_order(img, weights):
    # acc and term start as NaN, so a valid column that read an element
    # before it was written would differ from the oracle, and a scratch
    # element left unwritten would stay NaN.
    kh, kw = weights.shape
    padded = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    acc = np.full((img.shape[0], padded.shape[1]), np.nan)
    term = np.full(acc.size, np.nan)
    with np.errstate(all="raise"):
        out = accumulate(padded, weights, acc, term)
    assert out is acc
    assert not np.isnan(acc).any()
    valid = np.ascontiguousarray(acc[:, :img.shape[1]])
    assert valid.tobytes() == row_major_correlate(img, weights).tobytes()


def test_accumulate_rejects_an_acc_without_the_padded_row_stride():
    padded = np.zeros((5, 6))
    weights = np.ones((3, 3))
    for acc in (np.empty((3, 4)), np.empty((3, 12))[:, ::2]):
        with pytest.raises(ValueError, match="row stride"):
            accumulate(padded, weights, acc)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (4, 6)])
@pytest.mark.parametrize("kernel", [(1, 1), (1, 5), (5, 1), (7, 7)])
def test_correlate_returns_a_c_contiguous_raster(shape, kernel):
    img = np.arange(float(np.prod(shape))).reshape(shape)
    out = correlate(img, np.ones(kernel))
    assert out.shape == shape and out.flags.c_contiguous
