"""Synthetic pair construction: blur, seams, ground truth, determinism."""

import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentfuse
from momentfuse import image
from momentfuse.image import correlate, quantize, widen
from momentfuse.synthetic import (
    MAX_SIGMA,
    _gaussian_kernel1d,
    _tile_side,
    complementary_blur_pair,
    gaussian_blur,
    random_texture,
    synthesize_pairs,
)


def test_blur_preserves_constants():
    img = np.full((10, 10), 123, dtype=np.uint8)
    assert np.array_equal(gaussian_blur(img, 2.0), img)


def test_blur_zero_sigma_is_identity_copy():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    for sigma in (0.0, -1.0):
        out = gaussian_blur(img, sigma)
        assert np.array_equal(out, img)
        out[0, 0] = ~img[0, 0]
        assert out[0, 0] != img[0, 0]  # copy, not view


def test_blur_reduces_contrast_and_preserves_mean_roughly():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    blurred = gaussian_blur(img, 2.0)
    assert blurred.astype(float).std() < img.astype(float).std()
    assert abs(blurred.astype(float).mean() - img.astype(float).mean()) < 2.0


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
def test_blur_rejects_a_non_finite_sigma(sigma):
    img = np.zeros((4, 4), np.uint8)
    with pytest.raises(ValueError, match=f"^sigma must be finite, got {sigma}$"):
        gaussian_blur(img, sigma)
    with pytest.raises(ValueError, match=f"^sigma must be finite, got {sigma}$"):
        synthesize_pairs(1, sigma, seed=0, height=8, width=8)


@pytest.mark.parametrize("sigma", [math.nextafter(MAX_SIGMA, math.inf), 1e5, 1e20, 1e308])
def test_blur_rejects_a_sigma_above_the_bound(sigma):
    # Before the bound, 1e308 overflowed 3 sigma, 1e5 asked for a buffer of
    # terabytes, and 1e20 appended taps until memory ran out.
    img = np.zeros((4, 4), np.uint8)
    message = "^" + re.escape(f"sigma must be at most {MAX_SIGMA}, got {sigma}") + "$"
    for blur in (gaussian_blur, lambda arr, sigma: complementary_blur_pair(arr, 2, sigma)):
        with pytest.raises(ValueError, match=message):
            blur(img, sigma)
    with pytest.raises(ValueError, match=message):
        synthesize_pairs(1, sigma, seed=0, height=8, width=8)


@pytest.mark.parametrize("sigma", ["2", True, np.True_, None])
def test_blur_rejects_a_sigma_that_is_no_real_number(sigma):
    # "2" raised numpy's TypeError, and True blurred as sigma 1.
    img = np.zeros((4, 4), np.uint8)
    message = "^" + re.escape(f"sigma must be a real number, got {sigma!r}") + "$"
    for blur in (gaussian_blur, lambda arr, sigma: complementary_blur_pair(arr, 2, sigma)):
        with pytest.raises(ValueError, match=message):
            blur(img, sigma)
    with pytest.raises(ValueError, match=message):
        synthesize_pairs(1, sigma, seed=0, height=8, width=8)


def test_blur_at_the_sigma_bound():
    assert len(_gaussian_kernel1d(MAX_SIGMA)) == 2 * 300 + 1
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    # The kernel is far wider than the raster, so the replicated corners
    # dominate every output, and their mean is this ramp's mean.
    blurred = gaussian_blur(img, MAX_SIGMA)
    assert blurred.shape == img.shape
    assert np.abs(widen(blurred) - img.mean()).max() < 1.0


def test_blur_kernel_mass_is_one():
    # A delta spike spreads but keeps its total mass (replicate border, spike
    # far from edges); the 8-bit blur is that spread, rounded.
    img = np.zeros((21, 21), np.uint8)
    img[10, 10] = 255
    spread = full_raster_blur(widen(img), 1.5)
    assert spread.sum() == pytest.approx(255.0, rel=1e-12)
    out = gaussian_blur(img, 1.5)
    assert out.tobytes() == quantize(spread).tobytes()
    assert out[10, 10] < 255


def test_kernel_taps_are_python_floats_normalized_by_fsum():
    for sigma in (0.3, 1.3, 2.0, 3.5):
        radius = max(1, math.ceil(3.0 * sigma))
        taps = [math.exp(-(k * k) / (2.0 * sigma * sigma)) for k in range(-radius, radius + 1)]
        total = math.fsum(taps)
        assert _gaussian_kernel1d(sigma).tolist() == [tap / total for tap in taps]


# Prints the blur taps at several sigmas, as hex bytes.
_TAPS_PROBE = textwrap.dedent("""
    from momentfuse.synthetic import _gaussian_kernel1d
    for sigma in (0.7, 1.3, 2.0, 3.5):
        print(_gaussian_kernel1d(sigma).tobytes().hex())
""")


def test_kernel_taps_do_not_depend_on_numpy_simd_level():
    # numpy's AVX-512 exp gives other last bits than its AVX2 and baseline
    # loops; the taps must not.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentfuse.__file__)),
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3")
    done = subprocess.run([sys.executable, "-c", _TAPS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    here = [_gaussian_kernel1d(sigma).tobytes().hex() for sigma in (0.7, 1.3, 2.0, 3.5)]
    assert done.stdout.split() == here


def full_raster_blur(arr, sigma):
    """Oracle: the separable blur as two `correlate` passes over the whole
    raster, the vertical one first."""
    kernel = _gaussian_kernel1d(sigma)
    return correlate(correlate(arr, kernel[:, None]), kernel[None, :])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("sigma", [0.1, 0.7, 1.3, 2.0, 3.5])
@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("height", [1, 2, 3, 4, 5])
def test_blur_in_one_row_strips_matches_full_raster(monkeypatch, height, width, sigma, workers):
    # Each strip is one row, and at sigma 3.5 the kernel's radius (11)
    # reaches past the strip and the whole raster: the halo rows are all
    # replicate padding.
    monkeypatch.setattr(image, "_STRIP_PIXELS", 1)
    monkeypatch.setattr(image, "_worker_count", lambda tasks: min(tasks, workers))
    rng = np.random.default_rng(height * 10 + width)
    img = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    with np.errstate(all="raise"):
        expected = quantize(full_raster_blur(widen(img), sigma))
        blurred = gaussian_blur(img, sigma)
    assert blurred.dtype == np.uint8 and blurred.flags.c_contiguous
    assert blurred.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       sigma=st.floats(0.1, 4.0), seed=st.integers(0, 2**32 - 1),
       strip_pixels=st.sampled_from([1, 7, 64, 1 << 16]), workers=st.sampled_from([1, 3]))
def test_blur_is_tiling_invariant(shape, sigma, seed, strip_pixels, workers):
    img = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
        mp.setattr(image, "_STRIP_PIXELS", strip_pixels)
        mp.setattr(image, "_worker_count", lambda tasks: min(tasks, workers))
        blurred = gaussian_blur(img, sigma)
        expected = full_raster_blur(widen(img), sigma)
        assert blurred.tobytes() == quantize(expected).tobytes()


def float_canvas_texture(height, width, rng):
    """Oracle: the test card painted on a float canvas and quantized once,
    drawing from rng in the same order as `random_texture`."""
    img = np.zeros((height, width))
    row = 0
    while row < height:
        tile_h = int(rng.integers(8, 17))
        col = 0
        while col < width:
            tile_w = int(rng.integers(8, 17))
            img[row:row + tile_h, col:col + tile_w] = rng.uniform(90.0, 190.0)
            col += tile_w
        row += tile_h
    img[::3, ::3] = 15
    return quantize(img)


def same_state(x, y):
    """Deep equality of two `bit_generator.state` values, whose nested dicts
    may hold arrays (MT19937's key, Philox's counter and buffer)."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same_state(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"])
@settings(max_examples=200, deadline=None)
@given(height=st.integers(1, 70), width=st.integers(1, 70), seed=st.integers(0, 2**63))
def test_random_texture_matches_float_canvas(bit_generator, height, width, seed):
    # Equal generator states afterwards mean that synthesize_pairs draws
    # the same seams after each texture.
    rng, oracle_rng = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                       for _ in range(2))
    for generator in (rng, oracle_rng):
        # Leaves half of a 64-bit draw buffered for the next 32-bit one.
        generator.random()
        generator.integers(0, 5)
    card = random_texture(height, width, rng)
    expected = float_canvas_texture(height, width, oracle_rng)
    assert card.dtype == np.uint8 and card.shape == (height, width)
    assert card.tobytes() == expected.tobytes()
    assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)


@pytest.mark.parametrize("draws, side", [
    ([0, 477218588], 8),  # low word 0 is redrawn; 477218588 * 9 = 2**32 - 4 is kept
    ([2863311531, 3817748708], 16),  # low word 3 is redrawn, 4 is kept
    ([2**32 - 1], 16),
])
def test_tile_side_redraws_a_low_product(draws, side):
    # A real draw redraws with probability 4 / 2**32, so no seeded card
    # reaches this branch.
    pending = iter(draws)
    states = []

    def next_uint32(state):
        states.append(state)
        return next(pending)

    assert _tile_side(next_uint32, "state") == side
    assert states == ["state"] * len(draws)


def test_pair_sides_and_ground_truth():
    rng = np.random.default_rng(5)
    base = random_texture(32, 32, rng)
    pair = complementary_blur_pair(base, 16, 1.5)
    # a keeps the base verbatim right of the seam, b left of it.
    assert np.array_equal(pair.a[:, 16:], base[:, 16:])
    assert np.array_equal(pair.b[:, :16], base[:, :16])
    assert not np.array_equal(pair.a[:, :16], base[:, :16])
    assert np.all(pair.sharp_is_a[:, 16:])
    assert not np.any(pair.sharp_is_a[:, :16])


def test_pair_zero_sigma_degenerates_to_base():
    rng = np.random.default_rng(6)
    base = random_texture(16, 16, rng)
    pair = complementary_blur_pair(base, 8, 0.0)
    assert np.array_equal(pair.a, base)
    assert np.array_equal(pair.b, base)


def test_pair_rejects_degenerate_seam():
    base = np.zeros((4, 4), dtype=np.uint8)
    for seam in (0, 4, -1, 7):
        with pytest.raises(ValueError):
            complementary_blur_pair(base, seam, 1.0)
    # True split at column 1, and 2.0 failed as a slice index.
    for seam in (True, np.True_, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^seam must be an integer, got {seam!r}$"):
            complementary_blur_pair(base, seam, 1.0)


def test_random_texture_is_full_card():
    rng = np.random.default_rng(9)
    card = random_texture(64, 48, rng)
    assert card.shape == (64, 48)
    assert card.dtype == np.uint8
    assert card[0, 0] == 15  # dot lattice anchored at the origin
    assert card[::3, ::3].max() == 15
    assert card.max() > 80  # bright tiles present


@pytest.mark.parametrize("side, value, message", [
    # 0 gave an empty card; 2.5 and True raised numpy's TypeError.
    ("height", 0, "height must be >= 1, got 0"),
    ("width", 0, "width must be >= 1, got 0"),
    ("height", -2, "height must be >= 1, got -2"),
    ("height", 2.5, "height must be an integer, got 2.5"),
    ("width", True, "width must be an integer, got True"),
])
def test_random_texture_rejects_a_side_that_is_no_positive_integer(side, value, message):
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        random_texture(**{"height": 8, "width": 8, side: value}, rng=rng)
    assert str(info.value) == message
    assert rng.bit_generator.state == state  # no draw before the check


def test_synthesize_pairs_deterministic_per_seed():
    first = synthesize_pairs(3, 1.5, seed=11, height=32, width=32)
    second = synthesize_pairs(3, 1.5, seed=11, height=32, width=32)
    different = synthesize_pairs(3, 1.5, seed=12, height=32, width=32)
    assert [pid for pid, _ in first] == ["000", "001", "002"]
    for (_, p1), (_, p2) in zip(first, second):
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)
        assert p1.seam == p2.seam
    assert any(not np.array_equal(p1.a, p3.a)
               for (_, p1), (_, p3) in zip(first, different))


def test_synthesize_pairs_with_fixed_base():
    rng = np.random.default_rng(14)
    base = random_texture(40, 40, rng)
    generated = synthesize_pairs(4, 1.0, seed=2, base=base)
    for _, pair in generated:
        assert pair.a.shape == base.shape
        assert 10 <= pair.seam <= 30  # middle half of the width


@pytest.mark.parametrize("width", [2, 3])
def test_synthesize_pairs_on_narrow_rasters(width):
    # The middle half of a raster 2 or 3 wide starts at column 0, which is
    # no seam; seams are drawn from column 1 up instead.
    for seed in range(20):
        for _, pair in synthesize_pairs(3, 1.0, seed, height=8, width=width):
            assert 1 <= pair.seam < width
            assert pair.a.shape == (8, width)


@pytest.mark.parametrize("width, shape", [
    (0, {"width": 0}), (1, {"width": 1}), (1, {"base": np.zeros((8, 1), np.uint8)}),
])
def test_synthesize_pairs_rejects_rasters_without_a_seam(width, shape):
    with pytest.raises(ValueError, match=f"width must be >= 2 to hold a seam, got {width}$"):
        synthesize_pairs(1, 1.0, seed=0, height=8, **shape)


@pytest.mark.parametrize("height", [0, -3])
def test_synthesize_pairs_rejects_a_raster_without_rows(height):
    with pytest.raises(ValueError, match=f"^height must be >= 1, got {height}$"):
        synthesize_pairs(1, 2.0, seed=0, height=height)


def test_synthesize_pairs_rejects_empty_request():
    with pytest.raises(ValueError):
        synthesize_pairs(0, 1.0, seed=1)
    # True made one pair, and 2.5 failed in range().
    for n_pairs in (True, 2.5, "2"):
        with pytest.raises(ValueError, match=f"^n_pairs must be an integer, got {n_pairs!r}$"):
            synthesize_pairs(n_pairs, 1.0, seed=1)


@pytest.mark.parametrize("side, value", [
    ("height", 8.0), ("height", True), ("width", 8.0), ("width", np.True_),
])
def test_synthesize_pairs_rejects_a_side_that_is_no_integer(side, value):
    with pytest.raises(ValueError, match=f"^{side} must be an integer, got {value!r}$"):
        synthesize_pairs(1, 1.0, seed=1, **{side: value})


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
def test_synthesize_pairs_rejects_a_seed_that_is_no_integer(seed):
    # True gave seed 1's pairs, and 1.5 or "3" raised numpy's TypeError.
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        synthesize_pairs(1, 1.0, seed=seed, height=8, width=8)


def test_synthesize_pairs_gives_the_same_bytes_for_an_int_and_a_numpy_seed():
    expected = synthesize_pairs(3, 1.5, seed=7, height=16, width=16)
    got = synthesize_pairs(3, 1.5, seed=np.int64(7), height=16, width=16)
    for (id_e, e), (id_g, g) in zip(expected, got, strict=True):
        assert id_e == id_g and e.seam == g.seam
        assert e.a.tobytes() == g.a.tobytes() and e.b.tobytes() == g.b.tobytes()


def test_synthetic_arguments_accept_numpy_numbers():
    expected = synthesize_pairs(2, 1.5, seed=3, height=16, width=16)
    got = synthesize_pairs(np.int64(2), np.float64(1.5), seed=3,
                           height=np.int32(16), width=np.uint16(16))
    for (id_e, e), (id_g, g) in zip(expected, got, strict=True):
        assert id_e == id_g and e.seam == g.seam
        assert np.array_equal(e.a, g.a) and np.array_equal(e.b, g.b)
    base = expected[0][1].a
    assert np.array_equal(complementary_blur_pair(base, np.int64(5), np.float64(1.5)).a,
                          complementary_blur_pair(base, 5, 1.5).a)
