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

from .image import _run_strips, accumulate, padded_rows, round_u8
from .validation import check_image_u8, check_int, check_real


# Largest blur sigma, a kernel of 2 * 300 + 1 taps; the tests, README and
# benchmark use sigmas of at most 4. Past it the kernel radius, not the
# raster, sizes the strip buffers, and 3 sigma can overflow an int.
MAX_SIGMA = 100.0


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    """2r + 1 normalized Gaussian taps, r = max(1, ceil(3 sigma)), from
    `math.exp` and the correctly rounded `math.fsum`: numpy's `exp` gives
    other last bits at other SIMD levels."""
    radius = max(1, int(math.ceil(3.0 * sigma)))
    taps = np.array([math.exp(-(k * k) / (2.0 * sigma * sigma))
                     for k in range(-radius, radius + 1)])
    return taps / math.fsum(taps)


def _check_sigma(sigma: float) -> float:
    """Raise ValueError unless the blur sigma is a real number, not a bool,
    finite and at most MAX_SIGMA; return it."""
    if not math.isfinite(check_real(sigma, "sigma")):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if sigma > MAX_SIGMA:
        raise ValueError(f"sigma must be at most {MAX_SIGMA}, got {sigma}")
    return sigma


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of an 8-bit raster with replicate borders, in
    row strips, each rounded to 8 bits with `round_u8`.

    sigma <= 0 returns an unmodified copy; a sigma that is a bool or not a
    real number, or is non-finite or above MAX_SIGMA, raises ValueError.
    Each pixel gets the vertical taps, then the horizontal ones, in the
    order and with the bits of `correlate` with kernel[:, None] and then
    kernel[None, :] on the full raster.
    """
    _check_sigma(sigma)
    img = check_image_u8(img)
    if sigma <= 0.0:
        return img.copy()
    kernel = _gaussian_kernel1d(sigma)
    radius = len(kernel) // 2
    height, width = img.shape
    stride = width + 2 * radius

    def blur_strip(top, bottom, out):
        rows = bottom - top
        term = np.empty((rows, stride))  # one product buffer for both passes
        # The edge columns are repeated too, so the vertical taps give the
        # pad columns the blurred edge columns' bits, which the horizontal
        # taps read there.
        padded = padded_rows(img, top - radius, bottom + radius, radius)
        vertical = accumulate(padded, kernel[:, None], np.empty((rows, stride)), term)
        # The horizontal pass writes over the first rows of `padded`, which
        # the vertical pass has finished reading.
        blurred = accumulate(vertical, kernel[None, :], padded[:rows], term)[:, :width]
        # A blur of uint8 samples is finite, so rounding skips quantize's
        # scan.
        round_u8(blurred, out)

    return _run_strips(height, width, blur_strip, (np.uint8,))[0]


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
    columns >= seam blurred (sharp on the left). Fully deterministic. A
    seam that is a bool or not an integer raises ValueError.
    """
    _check_sigma(sigma)
    base = check_image_u8(base, "base image")
    width = base.shape[1]
    if not 0 < check_int(seam, "seam") < width:
        raise ValueError(f"seam must lie strictly inside the image, got {seam} for width {width}")
    blurred = gaussian_blur(base, sigma)
    a = base.copy()
    a[:, :seam] = blurred[:, :seam]
    b = base.copy()
    b[:, seam:] = blurred[:, seam:]
    truth = np.zeros(base.shape, dtype=bool)
    truth[:, seam:] = True
    return SyntheticPair(a=a, b=b, sharp_is_a=truth, seam=seam, sigma=sigma)


def _tile_side(next_uint32, state) -> int:
    """One tile side in [8, 16], the draw of `Generator.integers(8, 17)`.

    numpy bounds a 32-bit draw by Lemire's multiply-and-shift over the 9
    values, redrawing while the product's low word is below
    (2**32 - 9) % 9 = 4.
    """
    m = next_uint32(state) * 9
    while m & 0xFFFFFFFF < 4:
        m = next_uint32(state) * 9
    return 8 + (m >> 32)


def random_texture(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Reproducible test card: flat bright tiles under a regular grid of dark
    dots.

    The dot lattice plants one strong dark feature (value 15) in every 3 x 3
    neighborhood, so blurring is detectable at every pixel; the flat tiles in
    between keep the content piecewise-constant with crisp full-range
    boundaries. Tile sides (8 to 16 pixels) and levels (90 to 190) are drawn
    from rng: each side and level is the value `rng.integers(8, 17)` and
    `rng.uniform(90.0, 190.0)` would return, from the same bits, and rng is
    left in the same state. A side that is no integer >= 1, and an rng that
    is not a numpy.random.Generator, raise ValueError.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    for name, side in (("height", height), ("width", width)):
        if check_int(side, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {side}")
    # The bit generator's C functions skip the Generator methods' per-call
    # argument handling, which took most of the time per tile.
    bit_generator = rng.bit_generator
    funcs = bit_generator.ctypes
    next_uint32, next_double, state = funcs.next_uint32, funcs.next_double, funcs.state
    img = np.empty((height, width), np.uint8)
    row = 0
    with bit_generator.lock:
        while row < height:
            tile_h = _tile_side(next_uint32, state)
            widths, levels = [], []
            col = 0
            while col < width:
                tile_w = _tile_side(next_uint32, state)
                widths.append(tile_w)
                # What numpy's C `uniform` computes from the same draw.
                levels.append(90.0 + 100.0 * next_double(state))
                col += tile_w
            # One band of tiles: each level rounds once, then repeats across
            # its tile's columns and down the band's rows.
            band = round_u8(np.array(levels), np.empty(len(levels), np.uint8))
            img[row:row + tile_h] = np.repeat(band, widths)[:width]
            row += tile_h
    img[::3, ::3] = 15
    return img


def synthesize_pairs(n_pairs: int, sigma: float, seed: int,
                     base: np.ndarray | None = None,
                     height: int = 256, width: int = 256) -> list[tuple[str, SyntheticPair]]:
    """Generate a deterministic batch of complementary-blur pairs.

    All randomness (textures when no base is given, seam positions) flows
    from the single seed. Pair ids are zero-padded indices, so the on-disk
    naming convention `<id>_a.pgm` / `<id>_b.pgm` sorts naturally. An
    n_pairs, seed, height or width that is a bool or not an integer raises
    ValueError, as `gaussian_blur` does for sigma.
    """
    if check_int(n_pairs, "n_pairs") < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    _check_sigma(sigma)
    if base is not None:
        base = check_image_u8(base, "base image")
        height, width = base.shape
    if check_int(width, "width") < 2:  # `random_texture` checks the height
        raise ValueError(f"width must be >= 2 to hold a seam, got {width}")
    rng = np.random.default_rng(check_int(seed, "seed"))
    digits = max(3, len(str(n_pairs - 1)))
    out = []
    for index in range(n_pairs):
        img = base if base is not None else random_texture(height, width, rng)
        # Seams stay in the middle half so both sides keep real content.
        seam = int(rng.integers(max(1, width // 4), width - width // 4))
        out.append((f"{index:0{digits}d}", complementary_blur_pair(img, seam, sigma)))
    return out
