"""Synthetic complementary-blur pairs with per-pixel ground truth.

Each pair is built from one sharp base image: the first output blurs all
columns left of a seam, the second blurs the rest, so exactly one side of
every pair is sharp and the sharp side is known by construction. This gives
the test harness registered pairs with a ground-truth decision map when no
real sensor data is at hand.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fusion import _run_strips
from .image import accumulate, pad_edges, round_u8
from .validation import check_image_u8


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    radius = max(1, int(math.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _blur(arr: np.ndarray, sigma: float, dtype) -> np.ndarray:
    """Separable Gaussian blur of a 2-D raster with replicate borders, in
    row strips; a uint8 `dtype` rounds each strip with `round_u8`.

    Each pixel gets the vertical taps, then the horizontal ones, in the
    order and with the bits of `correlate` with kernel[:, None] and then
    kernel[None, :] on the full raster.
    """
    kernel = _gaussian_kernel1d(sigma)
    radius = len(kernel) // 2
    height, width = arr.shape
    stride = width + 2 * radius

    def blur_strip(top, bottom, lo, hi, keep):
        rows = bottom - top
        pad_top = radius - (top - lo)
        term = np.empty((rows, stride))  # one product buffer for both passes
        # Rows [lo, hi) widen as they are copied in, and pad_edges repeats
        # the edge rows where the kernel reaches past the image. It also
        # repeats the edge columns, so the vertical taps give the pad
        # columns the bits of the blurred edge columns, which is what the
        # horizontal taps read there.
        padded = np.empty((rows + 2 * radius, stride))
        padded[pad_top:pad_top + hi - lo, radius:radius + width] = arr[lo:hi]
        pad_edges(padded, pad_top, radius, hi - lo, width)
        vertical = accumulate(padded, kernel[:, None], np.empty((rows, stride)), term)
        # The horizontal pass writes over the first rows of `padded`, which
        # the vertical pass has finished reading.
        blurred = accumulate(vertical, kernel[None, :], padded[:rows], term)[:, :width]
        # A blur of uint8 samples is finite, so rounding skips quantize's
        # scan.
        return (round_u8(blurred) if dtype == np.uint8 else blurred,)

    # An output row reads the input rows within the kernel's radius.
    return _run_strips(height, width, radius, blur_strip, (dtype,))[0]


def gaussian_blur_float(arr: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a float raster with replicate borders.

    sigma <= 0 returns an unmodified copy.
    """
    if sigma <= 0.0:
        return np.array(arr, copy=True, dtype=np.float64)
    return _blur(np.asarray(arr), sigma, np.float64)


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of an 8-bit raster, requantized to 8 bits."""
    img = check_image_u8(img)
    return img.copy() if sigma <= 0.0 else _blur(img, sigma, np.uint8)


@dataclass
class SyntheticPair:
    """One complementary-blur pair. sharp_is_a is True where the first
    output is the sharp source (columns at or right of the seam)."""

    a: np.ndarray
    b: np.ndarray
    sharp_is_a: np.ndarray
    seam: int
    sigma: float


def complementary_blur_pair(base: np.ndarray, seam: int, sigma: float) -> SyntheticPair:
    """Split one sharp base into a registered pair with complementary blur.

    Output `a` has columns < seam blurred (sharp on the right), `b` has
    columns >= seam blurred (sharp on the left). Fully deterministic.
    """
    base = check_image_u8(base, "base image")
    width = base.shape[1]
    if not 0 < seam < width:
        raise ValueError(f"seam must lie strictly inside the image, got {seam} for width {width}")
    blurred = gaussian_blur(base, sigma)
    a = base.copy()
    a[:, :seam] = blurred[:, :seam]
    b = base.copy()
    b[:, seam:] = blurred[:, seam:]
    truth = np.zeros(base.shape, dtype=bool)
    truth[:, seam:] = True
    return SyntheticPair(a=a, b=b, sharp_is_a=truth, seam=seam, sigma=sigma)


def random_texture(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Reproducible test card: flat bright tiles under a regular grid of dark
    dots.

    The dot lattice plants one strong dark feature (value 15) in every 3 x 3
    neighborhood, so blurring is detectable at every pixel; the flat tiles in
    between keep the content piecewise-constant with crisp full-range
    boundaries. Tile sides (8 to 16 pixels) and levels (90 to 190) are drawn
    from rng."""
    img = np.empty((height, width), np.uint8)
    row = 0
    while row < height:
        tile_h = int(rng.integers(8, 17))
        widths, levels = [], []
        col = 0
        while col < width:
            tile_w = int(rng.integers(8, 17))
            widths.append(tile_w)
            levels.append(rng.uniform(90.0, 190.0))
            col += tile_w
        # One band of tiles: each level rounds once, then repeats across
        # its tile's columns and down the band's rows.
        img[row:row + tile_h] = np.repeat(round_u8(np.array(levels)), widths)[:width]
        row += tile_h
    img[::3, ::3] = 15
    return img


def synthesize_pairs(n_pairs: int, sigma: float, seed: int,
                     base: np.ndarray | None = None,
                     height: int = 256, width: int = 256) -> list[tuple[str, SyntheticPair]]:
    """Generate a deterministic batch of complementary-blur pairs.

    All randomness (textures when no base is given, seam positions) flows
    from the single seed. Pair ids are zero-padded indices, so the on-disk
    naming convention `<id>_a.pgm` / `<id>_b.pgm` sorts naturally.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if base is not None:
        base = check_image_u8(base, "base image")
        height, width = base.shape
    if width < 2:
        raise ValueError(f"width must be >= 2 to hold a seam, got {width}")
    rng = np.random.default_rng(seed)
    digits = max(3, len(str(n_pairs - 1)))
    out = []
    for index in range(n_pairs):
        img = base if base is not None else random_texture(height, width, rng)
        # Seams stay in the middle half so both sides keep real content.
        seam = int(rng.integers(max(1, width // 4), width - width // 4))
        out.append((f"{index:0{digits}d}", complementary_blur_pair(img, seam, sigma)))
    return out
