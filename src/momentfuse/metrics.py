"""Fusion quality metrics: entropy, standard deviation, mutual information,
and the gradient-based edge preservation score.

All histogram metrics operate on 8-bit rasters with exactly 256 bins and
base-2 logarithms, so entropies and mutual information are in bits with an
8-bit ceiling. Float rasters must be quantized before being evaluated.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .image import correlate, widen
from .validation import check_image_u8, check_same_shape

# The 3x3 Sobel x kernel is the [1, 2, 1] smoothing column times the
# [-1, 0, 1] difference row; the y kernel is its transpose.
SOBEL_SMOOTH = np.array([[1.0], [2.0], [1.0]])
SOBEL_DIFF = np.array([[-1.0, 0.0, 1.0]])


def histogram256(img: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit raster."""
    return np.bincount(check_image_u8(img).ravel(), minlength=256)


def entropy(img: np.ndarray) -> float:
    """Shannon entropy of the intensity histogram, in bits (0 to 8)."""
    counts = histogram256(img)
    probs = counts[counts > 0] / counts.sum()
    return float(-np.sum(probs * np.log2(probs)))


def std_dev(img: np.ndarray) -> float:
    """Population standard deviation of the samples; a contrast proxy."""
    return float(np.std(widen(img)))


def joint_histogram(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """256x256 co-occurrence histogram; cell (u, v) counts pixels where the
    first raster has level u and the second has level v."""
    a = check_image_u8(a, "first image")
    f = check_image_u8(f, "second image")
    check_same_shape(a, f, "first image", "second image")
    codes = a.ravel().astype(np.int64) * 256 + f.ravel()
    return np.bincount(codes, minlength=256 * 256).reshape(256, 256)


def mutual_information(a: np.ndarray, f: np.ndarray) -> float:
    """Mutual information between two registered rasters, in bits.

    MI = sum p(u,v) * log2(p(u,v) / (p(u) p(v))) over the joint histogram;
    empty cells contribute nothing.
    """
    joint = joint_histogram(a, f)
    total = joint.sum()
    pj = joint / total
    pa = pj.sum(axis=1)
    pf = pj.sum(axis=0)
    mask = pj > 0
    denom = np.outer(pa, pf)[mask]
    return float(np.sum(pj[mask] * np.log2(pj[mask] / denom)))


def mim(a: np.ndarray, b: np.ndarray, f: np.ndarray) -> float:
    """Mutual information measure of a fused raster against both sources:
    MI(a, f) + MI(b, f). Larger means more source information retained."""
    return mutual_information(a, f) + mutual_information(b, f)


@dataclass
class EdgeMap:
    """Per-pixel Sobel edge strength (>= 0) and orientation in (-pi/2, pi/2]."""

    strength: np.ndarray
    orientation: np.ndarray


def sobel_edges(img: np.ndarray) -> EdgeMap:
    """Sobel gradient strength and axial orientation under replicate padding.

    Orientation is arctan(sy / sx) in (-pi/2, pi/2], with pi/2 wherever the
    horizontal derivative vanishes (including gradient-free pixels).
    """
    # A widened uint8 raster is finite, so no isfinite scan is needed here.
    # Its samples are integers, so every partial sum of the separable passes
    # is an exact float64 integer and equals the full 3x3 stencil bit for bit.
    arr = widen(img)
    sx = correlate(correlate(arr, SOBEL_SMOOTH), SOBEL_DIFF)
    sy = correlate(correlate(arr, SOBEL_SMOOTH.T), SOBEL_DIFF.T)
    strength = np.hypot(sx, sy)
    nonzero = sx != 0.0
    orientation = np.divide(sy, sx, out=np.zeros(arr.shape), where=nonzero)
    np.arctan(orientation, out=orientation)
    np.copyto(orientation, math.pi / 2, where=~nonzero)
    return EdgeMap(strength=strength, orientation=orientation)


@dataclass
class QabfConstants:
    """Sigmoid constants of the edge preservation score.

    Defaults are the standard published values for the metric; both sigmoid
    ceilings must stay in (0, 1] so the score cannot exceed 1.
    """

    gamma_g: float = 0.9994
    kappa_g: float = -15.0
    sigma_g: float = 0.5
    gamma_a: float = 0.9879
    kappa_a: float = -22.0
    sigma_a: float = 0.8
    weight_exponent: float = 1.0

    def __post_init__(self):
        values = (self.gamma_g, self.kappa_g, self.sigma_g,
                  self.gamma_a, self.kappa_a, self.sigma_a, self.weight_exponent)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all constants must be finite")
        if not (0.0 < self.gamma_g <= 1.0 and 0.0 < self.gamma_a <= 1.0):
            raise ValueError("gamma_g and gamma_a must be in (0, 1]")
        if self.weight_exponent < 0.0:
            raise ValueError("weight_exponent must be >= 0")


def _sigmoid_in_place(x: np.ndarray, gamma: float, kappa: float, sigma: float) -> np.ndarray:
    """x := gamma / (1 + exp(kappa * (x - sigma))), one ufunc at a time."""
    np.subtract(x, sigma, out=x)
    np.multiply(kappa, x, out=x)
    np.exp(x, out=x)
    np.add(1.0, x, out=x)
    return np.divide(gamma, x, out=x)


def _preservation(src: EdgeMap, fused: EdgeMap, k: QabfConstants) -> np.ndarray:
    """Per-pixel edge preservation of one source in the fused raster.

    The steps are those of the expression

        g_rel = where(gmax > 0, min(gs, gf) / gmax, 0)
        diff = |os - of|;  diff = min(diff, pi - diff)
        a_rel = 1 - clip(diff, 0, pi/2) / (pi/2)
        qg = gamma_g / (1 + exp(kappa_g * (g_rel - sigma_g)))   (qa alike)
        where(gs > 0, qg * qa, 0)

    run in place, in the same order, so every bit of the result is the
    expression's. Two full-size buffers hold the work, plus a short-lived
    one for pi - diff.
    """
    gs, gf = src.strength, fused.strength
    qg = np.minimum(gs, gf)
    gmax = np.maximum(gs, gf)
    # Strengths are >= 0, so where gmax == 0 the minimum already holds g_rel = 0.
    np.divide(qg, gmax, out=qg, where=gmax > 0.0)
    _sigmoid_in_place(qg, k.gamma_g, k.kappa_g, k.sigma_g)

    qa = np.subtract(src.orientation, fused.orientation, out=gmax)
    np.abs(qa, out=qa)
    np.minimum(qa, math.pi - qa, out=qa)
    np.clip(qa, 0.0, math.pi / 2, out=qa)
    np.divide(qa, math.pi / 2, out=qa)
    np.subtract(1.0, qa, out=qa)
    _sigmoid_in_place(qa, k.gamma_a, k.kappa_a, k.sigma_a)

    np.multiply(qg, qa, out=qg)
    # Gradient-free source pixels preserve nothing by convention; their zero
    # weight removes them from the ratio anyway.
    np.copyto(qg, 0.0, where=~(gs > 0.0))
    return qg


# Source terms of the pair being scored: {(id(a), id(b), exponent): (a, b, terms)}.
# Set only inside `_shared_source_terms`; the entry keeps a and b alive, so
# their ids cannot be reused by other arrays while it exists.
_SOURCE_TERMS: contextvars.ContextVar = contextvars.ContextVar("source_terms", default=None)


@contextlib.contextmanager
def _shared_source_terms():
    """Within the block, `qabf` computes the terms of each source pair once
    and reuses them for every fused raster scored against that pair."""
    token = _SOURCE_TERMS.set({})
    try:
        yield
    finally:
        _SOURCE_TERMS.reset(token)


def _source_terms(a: np.ndarray, b: np.ndarray, weight_exponent: float) -> tuple:
    """(edges_a, edges_b, weight_a, weight_b, total) of two validated sources:
    their Sobel maps, their edge weights and the sum of both weights."""
    shared = _SOURCE_TERMS.get()
    key = (id(a), id(b), weight_exponent)
    if shared is not None and key in shared:
        return shared[key][2]
    edges_a = sobel_edges(a)
    edges_b = sobel_edges(b)
    weight_a = edges_a.strength ** weight_exponent
    weight_b = edges_b.strength ** weight_exponent
    terms = (edges_a, edges_b, weight_a, weight_b,
             float(np.sum(weight_a) + np.sum(weight_b)))
    if shared is not None:
        shared[key] = (a, b, terms)
    return terms


def qabf(a: np.ndarray, b: np.ndarray, f: np.ndarray,
         constants: QabfConstants | None = None) -> tuple[float, bool]:
    """Edge information preservation of a fused raster, in [0, 1].

    Per-pixel preservation scores of each source (relative Sobel strength and
    orientation agreement, both sigmoid-shaped) are averaged with weights
    equal to source edge strength raised to `weight_exponent`. Returns
    (score, degenerate); degenerate is True when both sources are
    gradient-free everywhere, which leaves the score defined as 0.
    """
    k = constants if constants is not None else QabfConstants()
    a = check_image_u8(a, "first source")
    b = check_image_u8(b, "second source")
    f = check_image_u8(f, "fused image")
    check_same_shape(a, f, "first source", "fused image")
    check_same_shape(b, f, "second source", "fused image")

    edges_a, edges_b, weight_a, weight_b, total = _source_terms(a, b, k.weight_exponent)
    if total == 0.0:
        return 0.0, True
    edges_f = sobel_edges(f)
    kept = _preservation(edges_a, edges_f, k)
    kept *= weight_a
    kept_b = _preservation(edges_b, edges_f, k)
    kept_b *= weight_b
    kept += kept_b
    score = float(np.sum(kept) / total)
    return score, False


@dataclass
class MetricsRecord:
    """One evaluation of a fused raster against its two sources."""

    entropy_bits: float
    sd: float
    mim_bits: float
    qabf: float
    degenerate_qabf: bool

    def as_dict(self) -> dict:
        return {
            "mim": self.mim_bits,
            "sd": self.sd,
            "entropy": self.entropy_bits,
            "qabf": self.qabf,
            "degenerate": self.degenerate_qabf,
        }


def evaluate(a: np.ndarray, b: np.ndarray, f: np.ndarray,
             constants: QabfConstants | None = None) -> MetricsRecord:
    """Bundle all four quality metrics of a fused raster."""
    q, degenerate = qabf(a, b, f, constants)
    return MetricsRecord(
        entropy_bits=entropy(f),
        sd=std_dev(f),
        mim_bits=mim(a, b, f),
        qabf=q,
        degenerate_qabf=degenerate,
    )
