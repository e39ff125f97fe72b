"""Fusion engine: local moment saliency, decision maps, and the fusers.

The moment fuser scores every pixel of each filtered source by a local
geometric moment over a small window; a binary decision map then copies each
fused pixel verbatim from whichever source scored higher. Plain averaging and
PCA-weighted fusion are included as cheap comparison baselines.

Fusers follow the familiar estimator convention: hyperparameters are
constructor arguments stored under the same names, introspectable through
``get_params`` / ``set_params``, and ``fuse(a, b)`` is stateless.
"""

import math
import os
import threading
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .filters import DEFAULT_CENTER_WEIGHT, high_boost_mask
from .image import accumulate, correlate, joint_counts, pad_edges, padded_rows, round_u8
from .validation import check_image_float, check_int, check_pair, check_same_shape

MAX_MOMENT_ORDER = 4  # guard against numeric blowup from huge index powers
# The largest moment window: the largest odd side whose weights, at most
# 97**8 < 2**53, are all exact integers in float64. It also bounds each
# strip buffer's halo and the weight array's window**2 cells.
MAX_WINDOW = 97

# Pixels per row strip of `_run_strips`: a strip's float64 temporaries stay
# cache-sized. At 2048^2 on a 2-core Xeon, strips of 2**14 pixels were
# slower than the untiled fuse, because small strips contend for the GIL.
_STRIP_PIXELS = 1 << 16

# True in the context of every item that `_pooled` hands to its threads.
_IN_POOL: ContextVar = ContextVar("in_pool", default=False)


@dataclass
class FusionResult:
    """Everything a fuser produces for one registered pair.

    fused_u8 is always quantize(fused_f). decision is a boolean map (True
    selects the first source) for selection fusers and None for blended
    baselines; moment maps are populated by the moment fuser only.
    """

    fused_u8: np.ndarray
    fused_f: np.ndarray
    method: str
    decision: Optional[np.ndarray] = None
    moments_a: Optional[np.ndarray] = None
    moments_b: Optional[np.ndarray] = None
    weights: Optional[tuple] = None
    degenerate: bool = False


def local_moment_map(img: np.ndarray, p: int = 1, q: int = 1, window: int = 3,
                     magnitude: bool = True) -> np.ndarray:
    """Local geometric moment of a float raster at every pixel.

    For each pixel, the surrounding `window` x `window` neighborhood (over the
    replicate-padded raster) is summed with weights r**p * c**q, where r and c
    are the 1-based local row and column indices of the window cell. With
    magnitude=True the absolute value of the raster feeds the sum, so larger
    filtered response always means a larger moment.

    p = q = 0 degenerates to a plain box sum.
    """
    arr = check_image_float(img)
    _check_magnitude(magnitude)
    return correlate(np.abs(arr) if magnitude else arr, _moment_weights(p, q, window))


def _moment_weights(p: int, q: int, window: int) -> np.ndarray:
    """The window's weights r**p * c**q; raises ValueError unless all three
    are integers, the window is odd and in [1, MAX_WINDOW] and both orders
    are in range.

    So a moment of finite samples is finite: it sums at most 97**2 samples
    with weights of at most 97**8, below 97**10 < 1e20 times the largest
    |sample|, which `high_boost_mask` keeps below 3e7 (and every partial
    sum on the way too).
    """
    for name, value in (("p", p), ("q", q), ("window", window)):
        check_int(value, name)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if window > MAX_WINDOW:
        raise ValueError(f"window must be at most {MAX_WINDOW}, got {window}")
    if not (0 <= p <= MAX_MOMENT_ORDER and 0 <= q <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment orders must be in [0, {MAX_MOMENT_ORDER}], got p={p}, q={q}")
    index = np.arange(1, window + 1, dtype=np.float64)
    return np.outer(index ** p, index ** q)


def _check_magnitude(magnitude) -> None:
    """Raise ValueError unless magnitude is a bool: any other value would
    pick a branch by its truth."""
    if not isinstance(magnitude, (bool, np.bool_)):
        raise ValueError(f"magnitude must be a bool, got {magnitude!r}")


def _worker_count(tasks: int) -> int:
    """Threads for `tasks` independent tasks: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


def _pooled(fn, items) -> list:
    """[fn(item) for item in items], run by the calling thread and one
    helper thread per further CPU this process may run on (inline on one
    CPU, and inside an item of another `_pooled` call).

    The threads take items in order from one shared queue. Each item runs
    in its own copy of the caller's context, all made before any item
    starts, so the caller's np.errstate and context variables hold in every
    item as they do inline, and a variable that an item sets stays in its
    own copy. Results come back in item order. Once an item raises, or the
    caller is interrupted between items, no queued item starts: the items
    already running finish, and the first exception in item order
    propagates. The helpers are started and joined inside each call, so a
    process forked later inherits no idle threads. A `_pooled` call made
    from inside an item runs inline on that item's thread, so a pool of
    pairs does not start a pool of strips per pair.
    """
    items = list(items)
    contexts = [copy_context() for _ in items]
    workers = 1 if _IN_POOL.get() else _worker_count(len(items))
    if workers <= 1:
        return [context.run(fn, item) for context, item in zip(contexts, items)]
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


def decision_map(moments_a: np.ndarray, moments_b: np.ndarray) -> np.ndarray:
    """Per-pixel selector: True where the first source wins.

    The first source is selected wherever its moment is greater OR EQUAL, so
    ties always go to the first source.
    """
    ma = check_image_float(moments_a, "first moment map")
    mb = check_image_float(moments_b, "second moment map")
    check_same_shape(ma, mb, "first moment map", "second moment map")
    return ma >= mb


class Fuser:
    """Base class for two-image fusers: dataclasses whose fields are their parameters."""

    @classmethod
    def _param_names(cls):
        return [field.name for field in fields(cls)]

    def get_params(self, deep: bool = True) -> dict:
        """Return constructor parameters as a dict (estimator convention)."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Update parameters in place; unknown names raise ValueError."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def fuse(self, a, b) -> FusionResult:
        raise NotImplementedError

    def _check_params(self):
        """Raise ValueError if a parameter is out of range; `fuse` does too."""

    _check_pair = staticmethod(check_pair)


@dataclass(eq=False)
class MomentFuser(Fuser):
    """Salient-feature fusion through local-moment decision maps.

    Pipeline: high-boost filter both sources, compute a local moment map of
    each filtered raster, select each output pixel from the source with the
    larger moment (ties go to the first source).

    Parameters
    ----------
    p, q : row / column index exponents of the local moment (default 1, 1;
        0, 0 reduces the moment to the window energy).
    window : odd side length of the moment neighborhood, at most MAX_WINDOW
        (default 3).
    magnitude : score |filtered| rather than the signed response (default True).
    source : 'filtered' draws output pixels from the filtered rasters, which
        also boosts contrast; 'original' copies untouched source pixels.
    center : center weight of the preprocessing mask, |center| at most
        `filters.MAX_CENTER` (default 17.9).
    """

    p: int = 1
    q: int = 1
    window: int = 3
    magnitude: bool = True
    source: str = "filtered"
    center: float = DEFAULT_CENTER_WEIGHT

    def _check_params(self) -> tuple:
        """Raise ValueError if a parameter is out of range; return the
        preprocessing mask and the moment window's weights."""
        if self.source not in ("filtered", "original"):
            raise ValueError(f"source must be 'filtered' or 'original', got {self.source!r}")
        _check_magnitude(self.magnitude)
        return high_boost_mask(self.center), _moment_weights(self.p, self.q, self.window)

    def fuse(self, a, b) -> FusionResult:
        mask, weights = self._check_params()
        a, b = self._check_pair(a, b)
        height, width = a.shape
        reach = len(weights) // 2  # the moment window's; the mask's is 1

        # The strips' rasters derive from the checked pair, so they are
        # finite and skip the public stages' checks. Each strip runs
        # `preprocess` and `local_moment_map` on the rows it needs, in
        # buffers padded where those rows meet the image's edge, which
        # gives the full-raster stages' bits. Both buffers, and the mask's
        # output, share one row stride, so every pass between them is one
        # flat slice; columns past `width` are scratch.
        stride = width + 2 * max(1, reach)

        def fuse_strip(top, bottom, fused_u8, fused_f, decision, moments_a, moments_b):
            # The mask filters rows [f0, f1): the strip's own rows and the
            # image rows the moment window reads around them. It reads one
            # more source row on each side, and the moment window reads the
            # filtered rows, reach more on each side; both buffers repeat
            # the edge row where those rows would leave the image.
            f0, f1 = max(0, top - reach), min(height, bottom + reach)
            moment_top = reach - (top - f0)
            moment_rows = np.empty((bottom - top + 2 * reach, stride))
            moment = np.empty((bottom - top, stride))
            term = np.empty((f1 - f0) * stride)  # one product buffer for every pass
            # filtered[r, c] goes to moment_rows[moment_top + r, reach + c]:
            # one flat copy at a fixed offset, through the last kept pixel.
            # The scratch columns it carries land in pad columns, which
            # pad_edges then overwrites.
            offset = moment_top * stride + reach
            count = (f1 - f0 - 1) * stride + width
            inner = moment_rows.reshape(-1)[offset:offset + count]

            def moments(src, out):
                source_rows = padded_rows(src, f0 - 1, f1 + 1, 1, stride)
                filtered = accumulate(source_rows, mask.coeffs, np.empty((f1 - f0, stride)), term)
                filtered *= mask.scale
                if self.magnitude:
                    np.abs(filtered.reshape(-1)[:count], out=inner)
                else:
                    inner[...] = filtered.reshape(-1)[:count]
                pad_edges(moment_rows, moment_top, reach, f1 - f0, width)
                np.copyto(out, accumulate(moment_rows, weights, moment, term)[:, :width])
                return filtered[top - f0:bottom - f0, :width]

            fa = moments(a, moments_a)
            fb = moments(b, moments_b)
            np.greater_equal(moments_a, moments_b, out=decision)
            if self.source == "filtered":
                fused_f[...] = np.where(decision, fa, fb)
                round_u8(fused_f, fused_u8)
            else:  # a widened uint8 sample rounds back to itself
                fused_u8[...] = np.where(decision, a[top:bottom], b[top:bottom])
                fused_f[...] = fused_u8

        fused_u8, fused_f, decision, ma, mb = _run_strips(
            height, width, fuse_strip, (np.uint8, np.float64, bool, np.float64, np.float64))
        return FusionResult(fused_u8=fused_u8, fused_f=fused_f, method="moment",
                            decision=decision, moments_a=ma, moments_b=mb)


def _blend(a: np.ndarray, b: np.ndarray, wa: float, wb: float) -> tuple:
    """(fused_u8, fused_f) of the blend wa * a + wb * b of a checked uint8
    pair, one row strip at a time."""
    def blend_strip(top, bottom, fused_u8, fused_f):
        # uint8 samples widen exactly, so these are the bits of the
        # full-raster expression wa * widen(a) + wb * widen(b).
        np.multiply(a[top:bottom], wa, out=fused_f, dtype=np.float64)
        fused_f += np.multiply(b[top:bottom], wb, dtype=np.float64)
        round_u8(fused_f, fused_u8)

    return _run_strips(*a.shape, blend_strip, (np.uint8, np.float64))


@dataclass(eq=False)
class AverageFuser(Fuser):
    """Pixel-by-pixel mean of the two sources; the simplest baseline."""

    def fuse(self, a, b) -> FusionResult:
        a, b = self._check_pair(a, b)
        # (x + y) / 2 and 0.5 * x + 0.5 * y are equal to the bit: halving is
        # exact and the sum of two 8-bit samples is exact in float64.
        fused_u8, fused_f = _blend(a, b, 0.5, 0.5)
        return FusionResult(fused_u8=fused_u8, fused_f=fused_f, method="average")


@dataclass(eq=False)
class PcaFuser(Fuser):
    """Global weighted blend with weights from the principal eigenvector of
    the pair's 2x2 sample covariance."""

    def fuse(self, a, b) -> FusionResult:
        a, b = self._check_pair(a, b)
        wa, wb, degenerate = pca_weights(a, b)
        fused_u8, fused_f = _blend(a, b, wa, wb)
        return FusionResult(
            fused_u8=fused_u8,
            fused_f=fused_f,
            method="pca",
            weights=(wa, wb),
            degenerate=degenerate,
        )


def pca_weights(a: np.ndarray, b: np.ndarray):
    """Blend weights (wa, wb, degenerate) of two 8-bit rasters of one shape,
    from the principal eigenvector of their covariance scaled to sum 1.

    With n^2 times the covariance as exact integers [[A, B], [B, C]],
    d = |A - C| and D = d^2 + 4B^2, that eigenvector is (d + sqrt(D), 2B),
    swapped when C > A. Its sum is 0 exactly when A == C and B <= 0 (a
    constant pair, or equal variances anti-correlated or uncorrelated: no
    direction is principal), which gives (0.5, 0.5, True). Else each weight
    is rounded once from its own exact ratio, so wa + wb may miss 1 by an
    ulp and a source swap swaps the weights bit for bit: k doubles until
    both ends of [r, r + 1], r = isqrt(D << 2k), round alike. The ratio is
    monotonic on that bracket of sqrt(D) 2^k, exact if D is a square, and
    else constant or irrational: never a rounding boundary, so the loop ends.
    """
    a, b = check_pair(a, b)
    A, B, C = _scatter(a, b)
    if A == C and B <= 0:
        return 0.5, 0.5, True
    d = abs(A - C)
    D, q = d * d + 4 * B * B, d + 2 * B  # q + sqrt(D) >= 1: no pole near the bracket
    k = 64
    while True:
        r = math.isqrt(D << 2 * k)
        ends = [(((d << k) + s) / ((q << k) + s), (2 * B << k) / ((q << k) + s))
                for s in (r, r + 1)]
        if ends[0] == ends[1] or r * r == D << 2 * k:
            major, minor = ends[0]
            return (major, minor, False) if A >= C else (minor, major, False)
        k *= 2


def _scatter(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """n^2 times the population covariance of a checked uint8 pair of n
    pixels, as exact integers (A, B, C) for (a, a), (a, b) and (b, b)."""
    joint = joint_counts(a, b)
    levels = np.arange(256, dtype=np.int64)
    count_a, count_b = joint.sum(axis=1), joint.sum(axis=0)
    # Integer dot products: exact, and no BLAS call. Python ints take the
    # products below, which can exceed int64 on large rasters.
    n, sa, sb = a.size, int(count_a @ levels), int(count_b @ levels)
    return (n * int(count_a @ levels ** 2) - sa * sa, n * int(levels @ (joint @ levels)) - sa * sb,
            n * int(count_b @ levels ** 2) - sb * sb)


_FUSER_CLASSES = {
    "moment": MomentFuser,
    "average": AverageFuser,
    "pca": PcaFuser,
}

FUSION_METHODS = tuple(sorted(_FUSER_CLASSES))


def make_fuser(method: str, **params) -> Fuser:
    """Instantiate a fuser by method name ('moment', 'average' or 'pca').

    Parameters that another fuser declares but the chosen one does not are
    ignored, so one flat parameter namespace can drive every method; a name
    that no fuser declares raises ValueError.
    """
    try:
        cls = _FUSER_CLASSES[method]
    except KeyError:
        raise ValueError(
            f"unknown fusion method {method!r}; expected one of {', '.join(FUSION_METHODS)}"
        ) from None
    known = {name for fuser in _FUSER_CLASSES.values() for name in fuser._param_names()}
    for name in params:
        if name not in known:
            raise ValueError(f"unknown fuser parameter {name!r}; "
                             f"expected one of {', '.join(sorted(known))}")
    accepted = set(cls._param_names())
    return cls(**{k: v for k, v in params.items() if k in accepted})
