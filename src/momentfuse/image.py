"""Raster primitives: replicate-padded row reads, the stencil correlation,
joint level counts, widening and 8-bit quantization.

All fusion arithmetic runs in float64 and is only quantized once, when an
8-bit output raster is actually needed.
"""

import numpy as np

from .validation import check_image_float, check_image_u8


def pad(img: np.ndarray, margin: int) -> np.ndarray:
    """Pad a 2-D raster by `margin` pixels on every side.

    The border repeats the nearest interior pixel, so no new intensity
    values are invented at the edges.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    img = np.asarray(img)
    return padded_rows(img, -margin, img.shape[0] + margin, margin, dtype=img.dtype)


def padded_rows(src: np.ndarray, start: int, stop: int, margin: int,
                stride: int | None = None, dtype=np.float64) -> np.ndarray:
    """Rows [start, stop) of a 2-D raster under replicate padding: a new
    C-contiguous `dtype` buffer of `stride` columns (default
    width + 2 * margin) that holds the raster's columns at [margin,
    margin + width). Rows and columns outside the raster repeat its edge;
    [start, stop) must overlap it. uint8 samples widen exactly."""
    height, width = src.shape
    lo, hi = max(0, start), min(height, stop)
    out = np.empty((stop - start, width + 2 * margin if stride is None else stride), dtype)
    out[lo - start:hi - start, margin:margin + width] = src[lo:hi]
    return pad_edges(out, lo - start, margin, hi - lo, width)


def pad_edges(padded: np.ndarray, top: int, left: int, height: int, width: int) -> np.ndarray:
    """Fill a caller-owned buffer around the block
    padded[top:top + height, left:left + width], which the caller has
    written, by repeating the block's nearest pixel (replicate padding);
    return `padded`.

    The margins may differ per side, so `padded_rows` pads rows only where
    a strip meets the raster's edge.
    """
    rows = padded[top:top + height]
    rows[:, :left] = rows[:, left:left + 1]
    rows[:, left + width:] = rows[:, left + width - 1:left + width]
    padded[:top] = padded[top]
    padded[top + height:] = padded[top + height - 1]
    return padded


def correlate(arr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate a raster with an odd-sided weight array under replicate
    padding.

    out(r, c) = sum_{i,j} weights(i, j) * padded(r + i, c + j), where the
    raster is edge-padded by kh//2 rows and kw//2 columns. `arr` is a 2-D
    float64 or uint8 raster; callers validate it. The public mask and
    moment window run through here; the strip-tiled fuse and synthetic
    blur call `padded_rows` and `accumulate` themselves, and Sobel has
    exact int16 passes of its own.
    Returns a C-contiguous float64 raster of `arr`'s shape.
    """
    kh, kw = weights.shape
    h, w = arr.shape
    padded = padded_rows(arr, -(kh // 2), h + kh // 2, kw // 2)
    acc = accumulate(padded, weights, np.empty((h, w + kw - 1)))
    return np.ascontiguousarray(acc[:, :w])  # no copy when kw == 1


def accumulate(padded: np.ndarray, weights: np.ndarray, acc: np.ndarray,
               term: np.ndarray | None = None) -> np.ndarray:
    """Write into `acc` the sum over the weight cells of each cell's weight
    times the window of `padded` it shifts to, and return it.

    `padded` and `acc` are C-contiguous and share the row stride W, so each
    cell (i, j) is one contiguous 1-D slice of `padded`, starting at
    i * W + j. With h = acc.shape[0] and (kh, kw) = weights.shape, `padded`
    has h + kh - 1 rows, and acc[r, c] for c < W - kw + 1 is the sum at
    padded[r:r + kh, c:c + kw]. The last kw - 1 columns of each row are
    scratch: they hold finite sums of cells that wrap into the next row
    when `padded` is finite, and zeros at the end of the last row.

    Cells are added in row-major order and zero weights are skipped, so the
    summation order, and with it every output bit, is fixed by `weights`
    alone. `term`, if given, is a C-contiguous buffer of at least acc.size
    float64 elements for the products.
    """
    if not acc.flags.c_contiguous or acc.shape[1] != padded.shape[1]:
        raise ValueError("acc must be C-contiguous with the padded buffer's row stride")
    row = padded.shape[1]
    kw = weights.shape[1]
    n = acc.size - (kw - 1)  # the last kw - 1 elements would read past `padded`
    src, out = padded.reshape(-1), acc.reshape(-1)
    out[n:] = 0.0
    out = out[:n]
    taps = [(weights[i, j], src[i * row + j:i * row + j + n]) for i, j in zip(*np.nonzero(weights))]
    if not taps:
        acc.fill(0.0)
        return acc
    if term is not None:
        term = term.reshape(-1)[:n]
    # The first tap writes 0.0 + w * x, the bits that adding it to a
    # zero-filled accumulator gives (0.0 + -0.0 is 0.0), with no fill pass.
    # 1 * x == x and a + (-x) == a - x exactly, so the +-1 cells skip their
    # multiply without changing a bit.
    weight, cell = taps[0]
    if weight == 1.0:
        np.add(cell, 0.0, out=out)
    elif weight == -1.0:
        np.subtract(0.0, cell, out=out)
    else:
        np.multiply(weight, cell, out=out)
        out += 0.0
    for weight, cell in taps[1:]:
        if weight == 1.0:
            out += cell
        elif weight == -1.0:
            out -= cell
        else:
            term = np.multiply(weight, cell, out=term)
            out += term
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
    clipped += 0.5
    return np.floor(clipped, out=clipped).astype(np.uint8)
