"""Raster primitives: border padding, the stencil correlation, joint level
counts, widening and 8-bit quantization.

All fusion arithmetic runs in float64 and is only quantized once, when an
8-bit output raster is actually needed.
"""

import numpy as np

from .validation import check_image_float, check_image_u8


def pad(img: np.ndarray, margin: int) -> np.ndarray:
    """Pad a raster by `margin` pixels on every side.

    The border repeats the nearest interior pixel, so no new intensity
    values are invented at the edges.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    if margin == 0:
        return np.array(img, copy=True)
    return np.pad(img, margin, mode="edge")


def correlate(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate a float raster with an odd-sided weight array under
    replicate padding.

    out(r, c) = sum_{i,j} weights(i, j) * padded(r + i, c + j), where the
    raster is edge-padded by kh//2 rows and kw//2 columns. Cells are added in
    row-major order and zero weights are skipped, so the summation order,
    and with it every output bit, is fixed by `weights` alone. The mask, moment
    window and blur run through here; Sobel has exact int16 passes of its own.
    `arr` must be a 2-D float64 raster; callers validate it.
    """
    kh, kw = weights.shape
    h, w = arr.shape
    padded = np.pad(arr, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    # Filled eagerly: np.zeros would hand back lazily zeroed pages whose
    # faults land in the first add, ~10% of a 256^2 blur on a 2-core Xeon.
    acc = np.full((h, w), 0.0)
    term = None  # one product buffer, reused by every other weight
    for i in range(kh):
        for j in range(kw):
            weight = weights[i, j]
            cell = padded[i:i + h, j:j + w]
            # 1 * x == x and a + (-x) == a - x exactly, so the +-1 cells skip
            # their multiply without changing a bit.
            if weight == 1.0:
                acc += cell
            elif weight == -1.0:
                acc -= cell
            elif weight != 0.0:
                term = np.multiply(weight, cell, out=term)
                acc += term
    return acc


def joint_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """256x256 int64 counts of two same-shape uint8 rasters' level pairs:
    cell (u, v) counts the pixels where `a` is u and `b` is v. Callers
    validate both rasters."""
    codes = a.astype(np.uint16)  # (u << 8) | v, built in place
    codes <<= 8
    codes |= b
    return np.bincount(codes.ravel(), minlength=1 << 16).reshape(256, 256)


def widen(img: np.ndarray) -> np.ndarray:
    """Promote an 8-bit raster to float64 for unclamped arithmetic."""
    return check_image_u8(img).astype(np.float64)


def quantize(img: np.ndarray) -> np.ndarray:
    """Clamp a float raster to [0, 255] and round half away from zero.

    Raises ValueError if any sample is NaN or infinite.
    """
    return round_u8(check_image_float(img))


def round_u8(arr: np.ndarray) -> np.ndarray:
    """`quantize` without the checks: `arr` must be a finite float64 raster."""
    clipped = np.clip(arr, 0.0, 255.0)
    # After clipping all values are >= 0, so half away from zero == floor(x + 0.5).
    return np.floor(clipped + 0.5).astype(np.uint8)
