"""Fusion engine: local moment saliency, decision maps, and the fusers.

The moment fuser scores every pixel of each filtered source by a local
geometric moment over a small window; a binary decision map then copies each
fused pixel verbatim from whichever source scored higher. Plain averaging and
PCA-weighted fusion are included as cheap comparison baselines.

Fusers follow the familiar estimator convention: hyperparameters are
constructor arguments stored under the same names, introspectable through
``get_params`` / ``set_params``, and ``fuse(a, b)`` is stateless.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .filters import DEFAULT_CENTER_WEIGHT, high_boost_mask
from .image import accumulate, correlate, joint_counts, pad_edges, padded_rows, round_u8
from .validation import (
    check_image_float,
    check_image_u8,
    check_same_shape,
)

MAX_MOMENT_ORDER = 4  # guard against numeric blowup from huge index powers

# Pixels per row strip of `_run_strips`: a strip's float64 temporaries stay
# cache-sized. At 2048^2 on a 2-core Xeon, strips of 2**14 pixels were
# slower than the untiled fuse, because small strips contend for the GIL.
_STRIP_PIXELS = 1 << 16


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
    return correlate(np.abs(arr) if magnitude else arr, _moment_weights(p, q, window))


def _moment_weights(p: int, q: int, window: int) -> np.ndarray:
    """The window's weights r**p * c**q; raises ValueError unless the window
    is odd and >= 1 and both orders are in range."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if not (0 <= p <= MAX_MOMENT_ORDER and 0 <= q <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment orders must be in [0, {MAX_MOMENT_ORDER}], got p={p}, q={q}")
    index = np.arange(1, window + 1, dtype=np.float64)
    return np.outer(index ** p, index ** q)


def _worker_count(tasks: int) -> int:
    """Threads for `tasks` independent strips: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


def _run_strips(height: int, width: int, fn, dtypes) -> tuple:
    """Call fn(top, bottom) once per row strip of a raster and return the
    outputs full-size, one array per entry of `dtypes`.

    `fn` returns rows [top, bottom) of each output and writes into nothing
    shared; a block may be a strided view, such as the first `width`
    columns of a wider buffer. A stencil reads the rows around its strip
    through `padded_rows`, which repeats the edge row where they leave the
    raster, so it gives the same bits strip by strip as on the full raster.

    A raster that fits one strip gets `fn`'s own arrays, allocated after the
    kernel's temporaries: allocated first, they made a 256^2 `run_pair`
    slower, through more page faults as the C heap grew. A block that is not
    C-contiguous is copied, so every output is. Otherwise the outputs are
    allocated before any strip runs, strips of about
    `_STRIP_PIXELS` pixels run on one thread per CPU (inline on one CPU),
    and each copies its rows in.
    """
    rows = max(1, _STRIP_PIXELS // width)

    def strip(top):
        return fn(top, min(top + rows, height))

    if height <= rows:
        return tuple(np.ascontiguousarray(out) for out in strip(0))
    outputs = tuple(np.empty((height, width), dtype) for dtype in dtypes)

    def run(top):
        for out, block in zip(outputs, strip(top), strict=True):
            out[top:top + rows] = block

    tops = range(0, height, rows)
    workers = _worker_count(len(tops))
    if workers == 1:
        for top in tops:
            run(top)
    else:
        # A pool per call: a process forked later inherits no idle threads.
        # Each strip runs in a copy of the caller's context, so the caller's
        # np.errstate holds in the workers as it does inline.
        contexts = [copy_context() for _ in tops]
        with ThreadPoolExecutor(workers) as pool:  # map re-raises a strip's exception
            list(pool.map(lambda context, top: context.run(run, top), contexts, tops))
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

    @staticmethod
    def _check_pair(a, b):
        a = check_image_u8(a, "first source")
        b = check_image_u8(b, "second source")
        check_same_shape(a, b, "first source", "second source")
        return a, b


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
    window : odd side length of the moment neighborhood (default 3).
    magnitude : score |filtered| rather than the signed response (default True).
    source : 'filtered' draws output pixels from the filtered rasters, which
        also boosts contrast; 'original' copies untouched source pixels.
    center : center weight of the preprocessing mask (default 17.9).
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

        def fuse_strip(top, bottom):
            # The mask filters rows [f0, f1): the strip's own rows and the
            # image rows the moment window reads around them. It reads one
            # more source row on each side, and the moment window reads the
            # filtered rows, reach more on each side; both buffers repeat
            # the edge row where those rows would leave the image.
            f0, f1 = max(0, top - reach), min(height, bottom + reach)
            moment_top = reach - (top - f0)
            moment_rows = np.empty((bottom - top + 2 * reach, stride))
            term = np.empty((f1 - f0) * stride)  # one product buffer for every pass
            # filtered[r, c] goes to moment_rows[moment_top + r, reach + c]:
            # one flat copy at a fixed offset, through the last kept pixel.
            # The scratch columns it carries land in pad columns, which
            # pad_edges then overwrites.
            offset = moment_top * stride + reach
            count = (f1 - f0 - 1) * stride + width
            inner = moment_rows.reshape(-1)[offset:offset + count]

            def moments(src):
                source_rows = padded_rows(src, f0 - 1, f1 + 1, 1, stride)
                filtered = accumulate(source_rows, mask.coeffs, np.empty((f1 - f0, stride)), term)
                filtered *= mask.scale
                if self.magnitude:
                    np.abs(filtered.reshape(-1)[:count], out=inner)
                else:
                    inner[...] = filtered.reshape(-1)[:count]
                pad_edges(moment_rows, moment_top, reach, f1 - f0, width)
                moment = accumulate(moment_rows, weights, np.empty((bottom - top, stride)), term)
                return filtered[top - f0:bottom - f0, :width], moment

            fa, ma = moments(a)
            fb, mb = moments(b)
            # One flat compare: the scratch columns hold finite sums.
            select_a = (ma >= mb)[:, :width]
            if self.source == "filtered":
                fused_f = np.where(select_a, fa, fb)
                fused_u8 = round_u8(fused_f)
            else:  # a widened uint8 sample rounds back to itself
                fused_u8 = np.where(select_a, a[top:bottom], b[top:bottom])
                fused_f = fused_u8.astype(np.float64)
            return fused_u8, fused_f, select_a, ma[:, :width], mb[:, :width]

        fused_u8, fused_f, decision, ma, mb = _run_strips(
            height, width, fuse_strip, (np.uint8, np.float64, bool, np.float64, np.float64))
        return FusionResult(fused_u8=fused_u8, fused_f=fused_f, method="moment",
                            decision=decision, moments_a=ma, moments_b=mb)


def _blend(a: np.ndarray, b: np.ndarray, wa: float, wb: float) -> tuple:
    """(fused_u8, fused_f) of the blend wa * a + wb * b of a checked uint8
    pair, one row strip at a time."""
    def blend_strip(top, bottom):
        # uint8 samples widen exactly, so these are the bits of the
        # full-raster expression wa * widen(a) + wb * widen(b).
        fused_f = a[top:bottom].astype(np.float64)
        fused_f *= wa
        term = b[top:bottom].astype(np.float64)
        term *= wb
        fused_f += term
        return round_u8(fused_f), fused_f

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
    """Blend weights (wa, wb) from the dominant eigenvector of the 2x2
    covariance of the flattened pair, normalized to sum to 1.

    Both sources must be 8-bit rasters of one shape. The covariance comes
    from exact integer sums over the pair's joint level counts: each entry
    is an exact rational, rounded to float64 once, so the weights do not
    depend on summation order, BLAS or its thread count.

    The eigenvector sign is normalized so the component sum is positive.
    When that sum vanishes (anti-correlated or constant pair), the weights
    are undefined; fall back to 0.5 / 0.5 and flag the result degenerate.
    """
    a, b = Fuser._check_pair(a, b)
    cov = _covariance(a, b)
    if not cov.any():
        # No variance in either source: no principal direction exists.
        return 0.5, 0.5, True
    eigvals, eigvecs = np.linalg.eigh(cov)
    principal = eigvecs[:, np.argmax(eigvals)]
    total = principal.sum()
    if abs(total) < 1e-12 * max(1.0, np.abs(principal).max()):
        return 0.5, 0.5, True
    if total < 0:
        principal = -principal
        total = -total
    return float(principal[0] / total), float(principal[1] / total), False


def _covariance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 population covariance of a checked uint8 pair, each entry
    correctly rounded from its exact rational value."""
    joint = joint_counts(a, b)
    levels = np.arange(256, dtype=np.int64)
    count_a, count_b = joint.sum(axis=1), joint.sum(axis=0)
    # Integer dot products: exact, and no BLAS call. Python ints take the
    # products below, which can exceed int64 on large rasters.
    sum_a, sum_b = int(count_a @ levels), int(count_b @ levels)
    sum_aa, sum_bb = int(count_a @ levels ** 2), int(count_b @ levels ** 2)
    sum_ab = int(levels @ (joint @ levels))
    n = a.size
    # n^2 cov = n * sum(xy) - sum(x) * sum(y); int / int rounds correctly.
    aa = (n * sum_aa - sum_a * sum_a) / (n * n)
    ab = (n * sum_ab - sum_a * sum_b) / (n * n)
    bb = (n * sum_bb - sum_b * sum_b) / (n * n)
    return np.array([[aa, ab], [ab, bb]])


_FUSER_CLASSES = {
    "moment": MomentFuser,
    "average": AverageFuser,
    "pca": PcaFuser,
}

FUSION_METHODS = tuple(sorted(_FUSER_CLASSES))


def make_fuser(method: str, **params) -> Fuser:
    """Instantiate a fuser by method name ('moment', 'average' or 'pca').

    Parameters not accepted by the chosen fuser are ignored, so one flat
    parameter namespace can drive every method.
    """
    try:
        cls = _FUSER_CLASSES[method]
    except KeyError:
        raise ValueError(
            f"unknown fusion method {method!r}; expected one of {', '.join(FUSION_METHODS)}"
        ) from None
    accepted = set(cls._param_names())
    return cls(**{k: v for k, v in params.items() if k in accepted})
