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

from .fusion import _run_strips
from .image import joint_counts, padded_rows
from .validation import check_image_u8, check_same_shape


def histogram256(img: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit raster."""
    return np.bincount(check_image_u8(img).ravel(), minlength=256)


def entropy(img: np.ndarray) -> float:
    """Shannon entropy of the intensity histogram, in bits (0 to 8)."""
    counts = histogram256(img)
    probs = counts[counts > 0] / counts.sum()
    # + 0.0 turns the -0.0 of a one-level raster into 0.0 and leaves every
    # nonzero value as it is.
    return float(-np.sum(probs * np.log2(probs))) + 0.0


def std_dev(img: np.ndarray) -> float:
    """Population standard deviation of the samples; a contrast proxy."""
    # np.std sums integer samples, and their deviations from the mean, in
    # float64: the bits of the widened raster's, with no float64 copy of it.
    return float(np.std(check_image_u8(img)))


def joint_histogram(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """256x256 co-occurrence histogram; cell (u, v) counts pixels where the
    first raster has level u and the second has level v."""
    a = check_image_u8(a, "first image")
    f = check_image_u8(f, "second image")
    check_same_shape(a, f, "first image", "second image")
    return joint_counts(a, f)


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
    arr = check_image_u8(img)

    def strip_edges(top, bottom):
        edges = _sobel(arr, top, bottom)
        return edges.strength, edges.orientation

    return EdgeMap(*_run_strips(*arr.shape, strip_edges, (np.float64, np.float64)))


def _edge_rows(edges: EdgeMap, top: int, bottom: int) -> EdgeMap:
    """Rows [top, bottom) of an edge map, as views."""
    return EdgeMap(edges.strength[top:bottom], edges.orientation[top:bottom])


def _sobel(img: np.ndarray, top: int, bottom: int) -> EdgeMap:
    """Rows [top, bottom) of `sobel_edges` of a uint8 raster, without the checks."""
    # On uint8 samples every partial sum is an integer in [-1020, 1020], so the
    # int16 derivatives equal the 3x3 float stencil bit for bit.
    padded = padded_rows(img, top - 1, bottom + 1, 1, dtype=np.int16)
    sx = _sobel_x(padded)
    sy = _sobel_x(padded.T).T  # the y kernel is the x kernel transposed
    return EdgeMap(strength=np.hypot(sx, sy), orientation=_orientation(sx, sy))


def _orientation(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """arctan(sy / sx), and pi/2 wherever sx == 0, of float64 derivatives.

    Where sx == 0 the ratio is 1 / 0 = +inf, whose arctan is exactly pi/2,
    so no masked pass is needed. The derivatives come from integers, so sx
    is never -0.0.
    """
    with np.errstate(divide="ignore"):
        ratio = np.divide(np.where(sx != 0.0, sy, 1.0), sx)
    return np.arctan(ratio, out=ratio)


def _sobel_x(padded: np.ndarray) -> np.ndarray:
    """Sobel x derivative of an edge-padded int16 raster, as float64."""
    smooth = padded[:-2] + 2 * padded[1:-1] + padded[2:]
    return (smooth[:, 2:] - smooth[:, :-2]).astype(np.float64)


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
    one for pi - diff. The clip is left out, since it never changes a
    value: orientations lie in [-pi/2, pi/2], so diff lies in [0, pi], and
    where diff >= pi/2, pi - diff is exact (Sterbenz), so the folded
    difference lies in [0, pi/2].
    """
    gs, gf = src.strength, fused.strength
    qg = np.minimum(gs, gf)
    gmax = np.maximum(gs, gf)
    # 0 / 0 leaves NaN where gmax == 0. Strengths are >= 0, so gs == 0 there
    # too, and the final copyto zeroes those pixels.
    with np.errstate(invalid="ignore"):
        np.divide(qg, gmax, out=qg)
    _sigmoid_in_place(qg, k.gamma_g, k.kappa_g, k.sigma_g)

    qa = np.subtract(src.orientation, fused.orientation, out=gmax)
    np.abs(qa, out=qa)
    np.minimum(qa, math.pi - qa, out=qa)
    np.divide(qa, math.pi / 2, out=qa)
    np.subtract(1.0, qa, out=qa)
    _sigmoid_in_place(qa, k.gamma_a, k.kappa_a, k.sigma_a)

    np.multiply(qg, qa, out=qg)
    # Gradient-free source pixels preserve nothing by convention; their zero
    # weight removes them from the ratio anyway. Strengths are finite and
    # >= 0, so gs == 0 is the complement of gs > 0.
    np.copyto(qg, 0.0, where=gs == 0.0)
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
    weight_a, weight_b = edges_a.strength, edges_b.strength
    if weight_exponent != 1.0:  # x ** 1.0 is x bit for bit, so 1.0 skips the copies
        weight_a, weight_b = weight_a ** weight_exponent, weight_b ** weight_exponent
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
    # The fused raster's edges exist one row strip at a time. The per-pixel
    # scores are stitched into one full-size buffer that is summed at once: a
    # sum per strip would add in another order and change the last bit.
    def score_rows(top, bottom):
        edges_f = _sobel(f, top, bottom)
        kept = _preservation(_edge_rows(edges_a, top, bottom), edges_f, k)
        kept *= weight_a[top:bottom]
        kept_b = _preservation(_edge_rows(edges_b, top, bottom), edges_f, k)
        kept_b *= weight_b[top:bottom]
        kept += kept_b
        return (kept,)

    kept, = _run_strips(*f.shape, score_rows, (np.float64,))
    return float(np.sum(kept) / total), False


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
