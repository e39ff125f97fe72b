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
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .filters import DEFAULT_CENTER_WEIGHT, preprocess
from .image import correlate, quantize, round_u8, widen
from .validation import (
    check_image_float,
    check_image_u8,
    check_same_shape,
)

MAX_MOMENT_ORDER = 4  # guard against numeric blowup from huge index powers

# Pixels per row strip of `MomentFuser.fuse`: a strip's float64 temporaries
# stay cache-sized. At 2048^2 on a 2-core Xeon, strips of 2**14 pixels were
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
    return _moment(check_image_float(img), _moment_weights(p, q, window), magnitude)


def _moment_weights(p: int, q: int, window: int) -> np.ndarray:
    """The window's weights r**p * c**q; raises ValueError unless the window
    is odd and >= 1 and both orders are in range."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if not (0 <= p <= MAX_MOMENT_ORDER and 0 <= q <= MAX_MOMENT_ORDER):
        raise ValueError(f"moment orders must be in [0, {MAX_MOMENT_ORDER}], got p={p}, q={q}")
    index = np.arange(1, window + 1, dtype=np.float64)
    return np.outer(index ** p, index ** q)


def _moment(arr: np.ndarray, weights: np.ndarray, magnitude: bool) -> np.ndarray:
    """`local_moment_map` of a finite float64 raster, without the checks."""
    return correlate(np.abs(arr) if magnitude else arr, weights)


def _worker_count(tasks: int) -> int:
    """Threads for `tasks` independent strips: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(tasks, cpus)


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

    def _check_pair(self, a, b):
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

    def fuse(self, a, b) -> FusionResult:
        if self.source not in ("filtered", "original"):
            raise ValueError(f"source must be 'filtered' or 'original', got {self.source!r}")
        a, b = self._check_pair(a, b)
        weights = _moment_weights(self.p, self.q, self.window)
        h, w = a.shape
        result = FusionResult(
            fused_u8=np.empty((h, w), np.uint8),
            fused_f=np.empty((h, w)),
            method="moment",
            decision=np.empty((h, w), bool),
            moments_a=np.empty((h, w)),
            moments_b=np.empty((h, w)),
        )
        # Output row r depends on source rows r +- halo: the mask reaches one
        # row, the moment window half its side. Clipping the halo at the image
        # edge reproduces the replicate padding, so strips are bit-identical to
        # the full-raster run. Their rasters derive from the checked pair, so
        # they are finite and skip the public stages' checks.
        halo = 1 + len(weights) // 2
        rows = max(1, _STRIP_PIXELS // w)

        def fuse_strip(top):
            bottom = min(top + rows, h)
            lo, hi = max(0, top - halo), min(h, bottom + halo)
            keep = slice(top - lo, bottom - lo)
            fa = preprocess(a[lo:hi], self.center)
            fb = preprocess(b[lo:hi], self.center)
            ma = result.moments_a[top:bottom]
            mb = result.moments_b[top:bottom]
            ma[:] = _moment(fa, weights, self.magnitude)[keep]
            mb[:] = _moment(fb, weights, self.magnitude)[keep]
            select_a = np.greater_equal(ma, mb, out=result.decision[top:bottom])
            if self.source == "filtered":
                fused_f = np.where(select_a, fa[keep], fb[keep])
                result.fused_u8[top:bottom] = round_u8(fused_f)
            else:  # a widened uint8 sample rounds back to itself
                fused_f = np.where(select_a, a[top:bottom], b[top:bottom])
                result.fused_u8[top:bottom] = fused_f
            result.fused_f[top:bottom] = fused_f

        tops = range(0, h, rows)
        workers = _worker_count(len(tops))
        if workers == 1:
            for top in tops:
                fuse_strip(top)
        else:
            # A pool per call: a process forked later inherits no idle threads.
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(fuse_strip, tops))  # re-raises a strip's exception
        return result


@dataclass(eq=False)
class AverageFuser(Fuser):
    """Pixel-by-pixel mean of the two sources; the simplest baseline."""

    def fuse(self, a, b) -> FusionResult:
        a, b = self._check_pair(a, b)
        fused_f = (widen(a) + widen(b)) / 2.0
        return FusionResult(fused_u8=quantize(fused_f), fused_f=fused_f, method="average")


@dataclass(eq=False)
class PcaFuser(Fuser):
    """Global weighted blend with weights from the principal eigenvector of
    the pair's 2x2 sample covariance."""

    def fuse(self, a, b) -> FusionResult:
        a, b = self._check_pair(a, b)
        wa, wb, degenerate = pca_weights(a, b)
        fused_f = wa * widen(a) + wb * widen(b)
        return FusionResult(
            fused_u8=quantize(fused_f),
            fused_f=fused_f,
            method="pca",
            weights=(wa, wb),
            degenerate=degenerate,
        )


def pca_weights(a: np.ndarray, b: np.ndarray):
    """Blend weights (wa, wb) from the dominant eigenvector of the 2x2
    covariance of the flattened pair, normalized to sum to 1.

    The eigenvector sign is normalized so the component sum is positive.
    When that sum vanishes (anti-correlated or constant pair), the weights
    are undefined; fall back to 0.5 / 0.5 and flag the result degenerate.
    """
    u = np.asarray(a, dtype=np.float64).ravel()
    v = np.asarray(b, dtype=np.float64).ravel()
    du = u - u.mean()
    dv = v - v.mean()
    cross = float(du @ dv)
    cov = np.array([[float(du @ du), cross], [cross, float(dv @ dv)]]) / u.size
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
