"""Local moment map tests against a brute-force double-loop oracle."""

import numpy as np
import pytest

from momentfuse.fusion import local_moment_map


def naive_moment_map(img, p, q, window, magnitude=True):
    """Independent reference: per pixel, loop the window with 1-based local
    indices, clamping reads to the raster (replicate border)."""
    values = np.abs(img) if magnitude else img
    h, w = values.shape
    margin = window // 2
    out = np.zeros((h, w))
    for row in range(h):
        for col in range(w):
            acc = 0.0
            for r_local in range(1, window + 1):
                for c_local in range(1, window + 1):
                    rr = min(max(row + r_local - 1 - margin, 0), h - 1)
                    cc = min(max(col + c_local - 1 - margin, 0), w - 1)
                    acc += (r_local ** p) * (c_local ** q) * values[rr, cc]
            out[row, col] = acc
    return out


def test_uniform_ones_default_orders():
    # sum r * c over a 3x3 window of ones: (1+2+3) * (1+2+3) = 36
    out = local_moment_map(np.ones((6, 6)), p=1, q=1, window=3)
    assert np.allclose(out, 36.0)


def test_uniform_ones_zero_orders_is_window_sum():
    out = local_moment_map(np.ones((6, 6)), p=0, q=0, window=3)
    assert np.allclose(out, 9.0)


def test_center_pixel_hand_case():
    img = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    out = local_moment_map(img, p=1, q=1, window=3)
    expected = naive_moment_map(img, 1, 1, 3)
    assert np.allclose(out, expected, atol=1e-9)
    # center pixel touches no border: oracle = sum of r*c*value over the raster
    acc = sum((r + 1) * (c + 1) * img[r, c] for r in range(3) for c in range(3))
    assert out[1, 1] == pytest.approx(acc)


@pytest.mark.parametrize("p,q", [(0, 0), (1, 1), (2, 1)])
def test_matches_brute_force_oracle(p, q):
    rng = np.random.default_rng(100 + p * 10 + q)
    for _ in range(4):
        h = int(rng.integers(1, 10))
        w = int(rng.integers(1, 10))
        img = rng.normal(scale=80.0, size=(h, w))
        out = local_moment_map(img, p=p, q=q, window=3)
        assert np.allclose(out, naive_moment_map(img, p, q, 3), atol=1e-9)


def test_window5_matches_oracle():
    rng = np.random.default_rng(55)
    img = rng.normal(scale=50.0, size=(7, 9))
    out = local_moment_map(img, p=1, q=2, window=5)
    assert np.allclose(out, naive_moment_map(img, 1, 2, 5), atol=1e-9)


def test_window_larger_than_image_is_covered_by_padding():
    img = np.array([[3.0]])
    out = local_moment_map(img, p=0, q=0, window=5)
    assert out[0, 0] == pytest.approx(75.0)  # 25 replicated samples of 3


def test_signed_mode_keeps_raw_values():
    img = np.array([[-2.0, 2.0], [-2.0, 2.0]])
    signed = local_moment_map(img, p=0, q=0, window=3, magnitude=False)
    unsigned = local_moment_map(img, p=0, q=0, window=3, magnitude=True)
    assert np.allclose(unsigned, 18.0)
    assert np.all(signed < unsigned)
    assert np.allclose(signed, naive_moment_map(img, 0, 0, 3, magnitude=False), atol=1e-12)


def test_magnitude_moments_are_nonnegative():
    rng = np.random.default_rng(9)
    img = rng.normal(size=(12, 12))
    assert np.all(local_moment_map(img, magnitude=True) >= 0.0)


def test_zero_orders_equal_box_sum():
    rng = np.random.default_rng(31)
    img = np.abs(rng.normal(scale=30.0, size=(9, 11)))

    # Independent box-sum oracle via cumulative sums over the padded raster.
    padded = np.pad(img, 1, mode="edge")
    box = np.zeros_like(img)
    for dr in range(3):
        for dc in range(3):
            box += padded[dr:dr + 9, dc:dc + 11]
    assert np.allclose(local_moment_map(img, p=0, q=0, window=3), box, atol=1e-9)


def test_monotone_in_magnitude():
    rng = np.random.default_rng(77)
    img = rng.normal(size=(8, 8))
    base = local_moment_map(img, p=1, q=1, window=3, magnitude=True)
    bumped = img.copy()
    bumped[4, 4] = np.sign(bumped[4, 4] or 1.0) * (abs(bumped[4, 4]) + 5.0)
    grown = local_moment_map(bumped, p=1, q=1, window=3, magnitude=True)
    assert np.all(grown >= base - 1e-12)
    assert grown[4, 4] > base[4, 4]


def test_rejects_bad_window_and_orders():
    img = np.ones((4, 4))
    with pytest.raises(ValueError):
        local_moment_map(img, window=4)
    with pytest.raises(ValueError):
        local_moment_map(img, window=-1)
    with pytest.raises(ValueError):
        local_moment_map(img, p=5)
    with pytest.raises(ValueError):
        local_moment_map(img, q=-1)
    # The docstring defines integer moment orders on an integer window only.
    with pytest.raises(ValueError, match="p must be an integer, got 0.5"):
        local_moment_map(img, p=0.5)
    with pytest.raises(ValueError, match="q must be an integer, got 2.0"):
        local_moment_map(img, q=2.0)
    with pytest.raises(ValueError, match="window must be an integer, got 3.0"):
        local_moment_map(img, window=3.0)
    # A bool is an int, but no moment order or window.
    with pytest.raises(ValueError, match="p must be an integer, got True"):
        local_moment_map(img, p=True)
    with pytest.raises(ValueError, match="q must be an integer, got False"):
        local_moment_map(img, q=False)
    with pytest.raises(ValueError, match="window must be an integer, got True"):
        local_moment_map(img, window=True)


def test_rejects_a_magnitude_that_is_not_a_bool():
    # Any other value would pick the branch by its truth: "no" as True.
    img = np.ones((4, 4))
    for value in ("no", None, 1, 0.0, np.float64(1.0)):
        with pytest.raises(ValueError, match="magnitude must be a bool"):
            local_moment_map(img, magnitude=value)


def test_accepts_a_numpy_bool_magnitude():
    img = np.arange(-10.0, 10.0).reshape(4, 5)
    for flag in (True, False):
        assert np.array_equal(local_moment_map(img, magnitude=np.bool_(flag)),
                              local_moment_map(img, magnitude=flag))


def test_accepts_numpy_integer_orders_and_window():
    img = np.arange(20.0).reshape(4, 5)
    assert np.array_equal(local_moment_map(img, p=np.int64(2), q=np.uint8(1), window=np.int32(3)),
                          local_moment_map(img, p=2, q=1, window=3))
