"""Padding, widening, and quantization contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentfuse.image import pad, pad_edges, padded_rows, quantize, widen


def test_pad_single_pixel_replicates():
    out = pad(np.array([[5.0]]), 1)
    assert out.shape == (3, 3)
    assert np.all(out == 5.0)


def test_pad_zero_margin_is_identity():
    img = np.arange(6.0).reshape(2, 3)
    out = pad(img, 0)
    assert np.array_equal(out, img)
    out[0, 0] = 99.0  # must be a copy, not a view
    assert img[0, 0] == 0.0


def test_pad_corners_take_nearest_pixel():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = pad(img, 1)
    assert out[0, 0] == 1.0
    assert out[0, 3] == 2.0
    assert out[3, 0] == 3.0
    assert out[3, 3] == 4.0
    assert np.array_equal(out[1:3, 1:3], img)


def test_pad_twice_equals_pad_double_margin():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(5, 7))
    assert np.array_equal(pad(pad(img, 1), 1), pad(img, 2))


def test_pad_rejects_negative_margin():
    with pytest.raises(ValueError):
        pad(np.zeros((2, 2)), -1)


@pytest.mark.parametrize("top, bottom, left, right",
                         [(0, 0, 0, 0), (1, 0, 1, 1), (0, 3, 2, 0), (2, 2, 0, 1)])
def test_pad_edges_matches_edge_padding_per_side(top, bottom, left, right):
    # Strips pad only the sides where they meet the image's edge.
    img = np.arange(12, dtype=np.int16).reshape(3, 4)
    padded = np.empty((3 + top + bottom, 4 + left + right), np.int16)
    padded[top:top + 3, left:left + 4] = img
    assert pad_edges(padded, top, left, 3, 4) is padded
    assert np.array_equal(padded, np.pad(img, ((top, bottom), (left, right)), mode="edge"))


def edge_padded_window(src, start, stop, margin, stride):
    """Oracle: rows [start, stop) of `src` edge-padded by np.pad, with
    `margin` columns on the left and enough on the right to fill `stride`."""
    height, width = src.shape
    above, below = max(0, -start), max(0, stop - height)
    full = np.pad(src, ((above, below), (margin, stride - width - margin)), mode="edge")
    return full[start + above:stop + above]


# (source dtype, buffer dtype): uint8 widens into float64 (the float
# stencils) and int16 (Sobel); float64 copies as it is.
_COPIES = [(np.uint8, np.float64), (np.uint8, np.int16), (np.float64, np.float64)]


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 8)), margin=st.integers(0, 10),
       extra=st.integers(0, 5), copy=st.sampled_from(_COPIES), data=st.data())
def test_padded_rows_is_a_window_of_the_edge_padded_raster(shape, margin, extra, copy, data):
    # The row range may start above the raster and end below it, by more
    # rows than the raster has, and the stride may exceed width + 2 * margin.
    src_dtype, dtype = copy
    src = data.draw(arrays(src_dtype, shape, elements=st.floats(-1e6, 1e6)
                           if src_dtype == np.float64 else None))
    height, width = shape
    start = data.draw(st.integers(-12, height - 1))
    stop = data.draw(st.integers(max(start, 0) + 1, height + 12))
    stride = width + 2 * margin + extra
    out = padded_rows(src, start, stop, margin, stride, dtype)
    expected = edge_padded_window(src, start, stop, margin, stride).astype(dtype)
    assert out.dtype == dtype and out.flags.c_contiguous and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("start, stop, margin", [(-5, 6, 4), (-1, 2, 9), (0, 1, 3), (-3, 1, 0)])
def test_padded_rows_of_one_row_raster_repeats_it(start, stop, margin):
    # The margin, and the rows read above and below, exceed the raster.
    src = np.array([[3, 250, 7]], np.uint8)
    out = padded_rows(src, start, stop, margin)
    expected = edge_padded_window(src, start, stop, margin, 3 + 2 * margin)
    assert out.dtype == np.float64 and out.shape == (stop - start, 3 + 2 * margin)
    assert np.array_equal(out, expected) and (out == out[0]).all()


def test_quantize_clamp_and_round():
    out = quantize(np.array([[-3.2, 270.1, 127.5, 64.0]]))
    assert out.tolist() == [[0, 255, 128, 64]]


def test_quantize_half_away_from_zero():
    out = quantize(np.array([[0.5, 1.5, 2.5, 254.5]]))
    assert out.tolist() == [[1, 2, 3, 255]]


def test_quantize_exact_integers_unchanged():
    img = np.arange(256, dtype=np.float64).reshape(16, 16)
    assert np.array_equal(quantize(img), img.astype(np.uint8))


def test_quantize_near_integer_from_filtering():
    # 109.99999999999997 is what constant-100 high-boost filtering produces.
    assert quantize(np.array([[109.99999999999997]]))[0, 0] == 110


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        quantize(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        quantize(np.array([[np.inf, 0.0]]))


def test_quantize_output_always_in_range():
    rng = np.random.default_rng(11)
    samples = rng.normal(scale=500.0, size=(64, 64))
    out = quantize(samples)
    assert out.dtype == np.uint8
    assert out.min() >= 0 and out.max() <= 255


def test_quantize_widen_is_identity():
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    assert np.array_equal(quantize(widen(img)), img)
