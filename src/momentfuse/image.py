"""Raster primitives: replicate-padded row reads, the stencil correlation,
the row-strip runner `_run_strips` and its thread pool `_pooled`, joint
level counts, widening and 8-bit quantization.

All fusion arithmetic runs in float64 and is only quantized once, when an
8-bit output raster is actually needed.
"""

import os
import threading
from contextvars import ContextVar, copy_context

import numpy as np

from .validation import _check_2d, check_image_float, check_image_u8, check_int

# Pixels per row strip of `_run_strips`: a strip's float64 temporaries stay
# cache-sized. At 2048^2 on a 2-core Xeon, strips of 2**14 pixels were
# slower than the untiled fuse, because small strips contend for the GIL.
_STRIP_PIXELS = 1 << 16

# True in the context of every item of a `_pooled` call that runs helper threads.
_IN_POOL: ContextVar = ContextVar("in_pool", default=False)


def pad(img: np.ndarray, margin: int) -> np.ndarray:
    """Pad a 2-D raster of any dtype by `margin` pixels on every side.

    The border repeats the nearest interior pixel, so no new intensity
    values are invented at the edges. A raster that is not 2-D or has a
    zero dimension, and a margin that is a bool, not an integer or
    negative, raise ValueError.
    """
    img = _check_2d(np.asarray(img), "image")
    if check_int(margin, "margin") < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
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
    acc = accumulate(padded, weights, np.empty((h, w + kw - 1)), np.empty(h * (w + kw - 1)))
    return np.ascontiguousarray(acc[:, :w])  # no copy when kw == 1


def accumulate(padded: np.ndarray, weights: np.ndarray, acc: np.ndarray,
               term: np.ndarray) -> np.ndarray:
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
    alone. `term` is a C-contiguous buffer of at least acc.size float64
    elements for the products.
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
            np.multiply(weight, cell, out=term)
            out += term
    return acc


def _worker_count(tasks: int) -> int:
    """Threads for `tasks` independent tasks: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


def _pooled(fn, items) -> list:
    """[fn(item) for item in items], run by the calling thread and one
    helper thread per further CPU this process may run on.

    Every thread runs one loop that takes items in order from one shared
    queue. With no helper (one CPU, or a call inside an item of another
    `_pooled` call) the caller runs it alone, so a pool of pairs does not
    start a pool of strips per pair. Each item runs in its own copy of the
    caller's context, all made before any item starts, so the caller's
    np.errstate and context variables hold in every item, and a variable
    that an item sets stays in its own copy. Results come back in item
    order. Once an item raises, or the caller is interrupted between items,
    no queued item starts: the items already running finish, and the first
    exception in item order propagates. The helpers are started and joined
    inside each call, so a process forked later inherits no idle threads.
    """
    items = list(items)
    contexts = [copy_context() for _ in items]
    workers = 1 if _IN_POOL.get() else _worker_count(len(items))
    if workers > 1:  # with no helper, each item has its thread to itself and may pool
        for context in contexts:
            context.run(_IN_POOL.set, True)
    results, failures = [None] * len(items), {}  # failures: item index to exception
    pending = list(reversed(range(len(items))))  # popped from the end, in item order
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                if not pending:
                    return
                index = pending.pop()
            try:
                results[index] = contexts[index].run(fn, items[index])
            except BaseException as exc:
                with lock:
                    failures[index] = exc
                    pending.clear()  # no queued item starts
                return

    helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
    finally:
        with lock:  # an interrupted caller leaves no queued item to the helpers
            pending.clear()
        for helper in helpers:
            if helper.ident is not None:  # it started
                helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _run_strips(height: int, width: int, fn, dtypes) -> tuple:
    """Allocate one C-contiguous full-size output per entry of `dtypes`,
    call fn(top, bottom, *rows) once per row strip, where `rows` holds each
    output's rows [top, bottom), and return the outputs.

    `fn` writes every pixel of its rows and nothing else that is shared. A
    stencil reads the rows around its strip through `padded_rows`, which
    repeats the edge row where they leave the raster, so it gives the same
    bits strip by strip as on the full raster. Strips of about
    `_STRIP_PIXELS` pixels run through `_pooled`; called from an item of
    another `_pooled` call, such as a pair of `run_batch`, they run inline
    on that item's thread.
    """
    outputs = tuple(np.empty((height, width), dtype) for dtype in dtypes)
    rows = max(1, _STRIP_PIXELS // width)

    def strip(top):
        bottom = min(top + rows, height)
        fn(top, bottom, *(out[top:bottom] for out in outputs))

    _pooled(strip, range(0, height, rows))
    return outputs


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
    arr = check_image_float(img)
    return round_u8(arr, np.empty(arr.shape, np.uint8))


def round_u8(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`quantize` without the checks, into `out`, a uint8 array of `arr`'s
    shape, which it returns: `arr` must be a finite float64 raster."""
    clipped = np.clip(arr, 0.0, 255.0)
    # After clipping all values are >= 0, so half away from zero == floor(x + 0.5).
    clipped += 0.5
    np.floor(clipped, out=clipped)
    # An exact cast of integers in [0, 255]; a floor straight into the uint8
    # `out` casts through ufunc buffers and is slower.
    out[...] = clipped
    return out
