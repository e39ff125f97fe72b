"""Fusion quality metrics: entropy, standard deviation, mutual information,
and the gradient-based edge preservation score.

All histogram metrics operate on 8-bit rasters with exactly 256 bins and
base-2 logarithms, so entropies and mutual information are in bits with an
8-bit ceiling. Float rasters must be quantized before being evaluated.
"""

import contextlib
import contextvars
import functools
import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .image import _run_strips, joint_counts, padded_rows
from .validation import check_image_u8, check_pair, check_real


def histogram256(img: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram of an 8-bit raster."""
    return np.bincount(check_image_u8(img).ravel(), minlength=256)


def entropy(img: np.ndarray) -> float:
    """Shannon entropy of the intensity histogram, in bits (0 to 8)."""
    return _entropy(histogram256(img))


def _entropy(counts: np.ndarray) -> float:
    """`entropy` of a raster from its 256 int64 level counts."""
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
    return joint_counts(*check_pair(a, f, "first image", "second image"))


def mutual_information(a: np.ndarray, f: np.ndarray) -> float:
    """Mutual information between two registered rasters, in bits.

    MI = sum p(u,v) * log2(p(u,v) / (p(u) p(v))) over the joint histogram;
    empty cells contribute nothing.
    """
    return _mutual_information(joint_histogram(a, f))


def _mutual_information(joint: np.ndarray) -> float:
    """`mutual_information` of two rasters from their 256x256 joint counts."""
    total = joint.sum()
    pj = joint / total
    pa = pj.sum(axis=1)
    pf = pj.sum(axis=0)
    mask = pj > 0
    p = pj[mask]
    return float(np.sum(p * np.log2(p / np.outer(pa, pf)[mask])))


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
    return EdgeMap(*_run_strips(*arr.shape, functools.partial(_sobel, arr),
                                (np.float64, np.float64)))


def _sobel(img: np.ndarray, top: int, bottom: int, strength: np.ndarray,
           orientation: np.ndarray) -> None:
    """Write rows [top, bottom) of `sobel_edges` of a uint8 raster into
    `strength` and `orientation`, without the checks."""
    # On uint8 samples every partial sum is an integer in [-1020, 1020], so the
    # int16 derivatives equal the 3x3 float stencil bit for bit.
    padded = padded_rows(img, top - 1, bottom + 1, 1, dtype=np.int16)
    down = padded[:-2] + 2 * padded[1:-1] + padded[2:]  # [1, 2, 1] down the rows
    sx = down[:, 2:] - down[:, :-2]
    across = padded[:, :-2] + 2 * padded[:, 1:-1] + padded[:, 2:]  # and across the columns
    sy = across[2:] - across[:-2]
    del padded, down, across  # freed before `_strength`'s int32 temporaries
    _strength(sx, sy, strength)
    _orientation(sx, sy, orientation)


def _strength(sx: np.ndarray, sy: np.ndarray, out: np.ndarray) -> None:
    """Write np.hypot of int16 derivatives in [-1020, 1020] into the float64
    array `out`, bit for bit.

    The sum of squares is exact in int32 (at most 2 * 1020**2), and np.sqrt
    of it equals np.hypot except at a few sums, by one ulp. Only pixels whose
    sum falls in a group the suspect table marks take np.hypot of their own
    derivatives.
    """
    squares = np.square(sx, dtype=np.int32)
    squares += np.square(sy, dtype=np.int32)
    np.sqrt(squares, out=out)
    suspect = np.flatnonzero(_suspects().take(np.right_shift(squares, 3, out=squares)))
    np.put(out, suspect, np.hypot(sx.take(suspect), sy.take(suspect), dtype=np.float64))


_DERIVATIVE_MAX = 1020  # the largest |sx| or |sy| of a uint8 raster
_BUILD_ROWS = 4  # values of x per chunk while the suspect table is built
_suspect_table = None  # set once, whole, by `_suspects`
_suspect_lock = threading.Lock()


def _suspects() -> np.ndarray:
    """The suspect table of `_build_suspects`, built on the first call in the
    process. Concurrent first calls build it once."""
    global _suspect_table
    table = _suspect_table
    if table is None:
        with _suspect_lock:
            if _suspect_table is None:
                # Built into a local array and published whole: a thread that
                # reads the name without the lock never sees a half-filled table.
                _suspect_table = _build_suspects()
            table = _suspect_table
    return table


def _build_suspects() -> np.ndarray:
    """Boolean table indexed by s >> 3 for the sums s = x*x + y*y of derivative
    magnitudes: True where the group of 8 sums holds one whose np.hypot(x, y)
    differs from np.sqrt(s). Groups of 8 keep the table at 254 KiB; 2,776
    of its 260,101 groups are marked with glibc 2.36's hypot.

    The table comes from this process's own np.hypot, so its bits hold on
    every libm and numpy dispatch level. It scans 0 <= y <= x <= 1020 (each
    chunk of x takes every y up to its largest x), a few rows at a time to
    keep the scratch memory small; hypot's symmetry in sign and argument
    order (C Annex F) covers the other pairs.
    """
    table = np.zeros((2 * _DERIVATIVE_MAX ** 2 >> 3) + 1, dtype=bool)
    for start in range(0, _DERIVATIVE_MAX + 1, _BUILD_ROWS):
        stop = min(start + _BUILD_ROWS, _DERIVATIVE_MAX + 1)
        x = np.arange(start, stop, dtype=np.float64)[:, None]
        y = np.arange(stop, dtype=np.float64)
        squares = x * x + y * y  # exact integers
        differs = np.hypot(x, y) != np.sqrt(squares)
        table[squares[differs].astype(np.intp) >> 3] = True
    return table


def _orientation(sx: np.ndarray, sy: np.ndarray, out: np.ndarray) -> None:
    """Write into `out` arctan(sy / sx), and pi/2 wherever sx == 0, of
    integer derivatives in [-1020, 1020] (int16, or their float64 values).

    Where sx == 0 the numerator is sy + 2048 > 0, so the ratio is +inf, whose
    arctan is exactly pi/2; elsewhere it is sy. No masked pass is needed, and
    the add costs a quarter of an np.where. The derivatives are integers, so
    neither is -0.0, and int16 operands convert exactly: the float64
    quotient is that of their float64 values.
    """
    numerator = np.add(sy, (sx == 0) * np.int16(2048))
    with np.errstate(divide="ignore"):
        np.divide(numerator, sx, out=out, dtype=np.float64)
    np.arctan(out, out=out)


# The largest weight_exponent. A Sobel strength of a uint8 raster is 0 or in
# [1, hypot(1020, 1020) ~ 1442.5], so each edge weight is at most
# 1442.5**64 ~ 1.5e202, and the weight total of two rasters of even
# sys.maxsize pixels stays below 3e221, far from float64's 1.8e308: the
# score's ratio of sums is never inf / inf. Near 92 the total could overflow.
MAX_WEIGHT_EXPONENT = 64.0


@dataclass(frozen=True)
class QabfConstants:
    """Sigmoid constants of the edge preservation score.

    Defaults are the standard published values for the metric. Every field
    must be a finite real number, not a bool; both sigmoid ceilings must stay
    in (0, 1] so the score cannot exceed 1, and the weight exponent in
    (0, MAX_WEIGHT_EXPONENT]: above the bound the score could come out NaN,
    and at 0 a gradient-free pixel would weigh 1, not 0. The dataclass is
    frozen, so no field skips these checks: `dataclasses.replace` builds a
    new, checked instance.
    """

    gamma_g: float = 0.9994
    kappa_g: float = -15.0
    sigma_g: float = 0.5
    gamma_a: float = 0.9879
    kappa_a: float = -22.0
    sigma_a: float = 0.8
    weight_exponent: float = 1.0

    def __post_init__(self):
        values = [check_real(getattr(self, f.name), f.name) for f in fields(self)]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all constants must be finite")
        if not (0.0 < self.gamma_g <= 1.0 and 0.0 < self.gamma_a <= 1.0):
            raise ValueError("gamma_g and gamma_a must be in (0, 1]")
        if self.weight_exponent <= 0.0:
            raise ValueError(f"weight_exponent must be > 0, got {self.weight_exponent}")
        if self.weight_exponent > MAX_WEIGHT_EXPONENT:
            raise ValueError(f"weight_exponent must be at most {MAX_WEIGHT_EXPONENT}, "
                             f"got {self.weight_exponent}")


def _check_constants(constants) -> QabfConstants:
    """QabfConstants() for None, a QabfConstants as it is; raise ValueError
    naming the type of anything else, which would fail late on a field."""
    if constants is None:
        return QabfConstants()
    if not isinstance(constants, QabfConstants):
        raise ValueError(f"constants must be a QabfConstants or None, "
                         f"got {type(constants).__name__}")
    return constants


def _sigmoid_in_place(x: np.ndarray, gamma: float, kappa: float, sigma: float) -> np.ndarray:
    """x := gamma / (1 + exp(kappa * (x - sigma))), one ufunc at a time."""
    np.subtract(x, sigma, out=x)
    np.multiply(kappa, x, out=x)
    np.exp(x, out=x)
    np.add(1.0, x, out=x)
    return np.divide(gamma, x, out=x)


def _kept(src_a: tuple, src_b: tuple, gf: np.ndarray, of: np.ndarray,
          k: QabfConstants, out: np.ndarray) -> None:
    """Write weight_a * Q_a + weight_b * Q_b per pixel into `out`, from rows
    of both sources, each as (strength, orientation, weight), and the fused
    edge rows gf, of.

    Q_s, the edge preservation of source s, runs the steps of the expression

        g_rel = where(gmax > 0, min(gs, gf) / gmax, 0)
        diff = |os - of|;  diff = min(diff, pi - diff)
        a_rel = 1 - clip(diff, 0, pi/2) / (pi/2)
        qg = gamma_g / (1 + exp(kappa_g * (g_rel - sigma_g)))   (qa alike)
        Q_s = where(gs > 0, qg * qa, 0)

    in place, in the same order, so every bit of the result is the
    expression's. Both sources run in gmax, which then holds qa; folded,
    for pi - diff; and out, the first score and the result. The second
    score goes into gf after its last read, its np.minimum. The clip is
    left out, since it never changes a value: orientations lie in
    [-pi/2, pi/2], so diff lies in [0, pi], and where diff >= pi/2,
    pi - diff is exact (Sterbenz), so the folded difference lies in
    [0, pi/2].
    """
    gmax, folded = np.empty_like(gf), np.empty_like(gf)
    for (gs, os, weight), score in ((src_a, out), (src_b, gf)):
        np.maximum(gs, gf, out=gmax)
        np.minimum(gs, gf, out=score)
        # 0 / 0 leaves NaN where gmax == 0. Strengths are >= 0, so gs == 0
        # there too, and the copyto below zeroes those pixels.
        with np.errstate(invalid="ignore"):
            np.divide(score, gmax, out=score)
        _sigmoid_in_place(score, k.gamma_g, k.kappa_g, k.sigma_g)

        qa = np.subtract(os, of, out=gmax)
        np.abs(qa, out=qa)
        np.subtract(math.pi, qa, out=folded)
        np.minimum(qa, folded, out=qa)
        np.divide(qa, math.pi / 2, out=qa)
        np.subtract(1.0, qa, out=qa)
        _sigmoid_in_place(qa, k.gamma_a, k.kappa_a, k.sigma_a)

        np.multiply(score, qa, out=score)
        # Gradient-free source pixels preserve nothing by convention; their
        # zero weight removes them from the ratio anyway. Strengths are
        # finite and >= 0, so gs == 0 is the complement of gs > 0.
        np.copyto(score, 0.0, where=gs == 0.0)
        np.multiply(score, weight, out=score)
    np.add(out, gf, out=out)


# The pair being scored, as (a, b, {weight_exponent: terms}). Set only inside
# `_shared_source_terms`.
_SOURCE_TERMS: contextvars.ContextVar = contextvars.ContextVar("source_terms", default=None)


@contextlib.contextmanager
def _shared_source_terms(a: np.ndarray, b: np.ndarray):
    """Within the block, `qabf` computes the terms of the checked sources a
    and b once and reuses them for every fused raster scored against those
    same arrays."""
    token = _SOURCE_TERMS.set((a, b, {}))
    try:
        yield
    finally:
        _SOURCE_TERMS.reset(token)


def _source_terms(a: np.ndarray, b: np.ndarray, weight_exponent: float) -> tuple:
    """(edges_a, edges_b, weight_a, weight_b, total) of two validated sources:
    their Sobel maps, their edge weights and the sum of both weights. Inside
    `_shared_source_terms(a, b)` the terms of those same arrays are reused."""
    scope = _SOURCE_TERMS.get()
    shared = scope[2] if scope is not None and scope[0] is a and scope[1] is b else {}
    if weight_exponent not in shared:
        edges_a = sobel_edges(a)
        edges_b = sobel_edges(b)
        weight_a, weight_b = edges_a.strength, edges_b.strength
        if weight_exponent != 1.0:  # x ** 1.0 is x bit for bit, so 1.0 skips the copies
            weight_a, weight_b = weight_a ** weight_exponent, weight_b ** weight_exponent
        shared[weight_exponent] = (edges_a, edges_b, weight_a, weight_b,
                                   float(np.sum(weight_a) + np.sum(weight_b)))
    return shared[weight_exponent]


def qabf(a: np.ndarray, b: np.ndarray, f: np.ndarray,
         constants: QabfConstants | None = None) -> tuple[float, bool]:
    """Edge information preservation of a fused raster, in [0, 1].

    Per-pixel preservation scores of each source (relative Sobel strength and
    orientation agreement, both sigmoid-shaped) are averaged with weights
    equal to source edge strength raised to `weight_exponent`. Returns
    (score, degenerate); degenerate is True when both sources are
    gradient-free everywhere, which leaves the score defined as 0.
    `constants` is None for the defaults or a QabfConstants; anything else
    raises ValueError.
    """
    k = _check_constants(constants)
    a, f = check_pair(a, f, "first source", "fused image")
    b, f = check_pair(b, f, "second source", "fused image")

    edges_a, edges_b, weight_a, weight_b, total = _source_terms(a, b, k.weight_exponent)
    if total == 0.0:
        return 0.0, True
    # The fused raster's edges exist one row strip at a time. The per-pixel
    # scores go into one full-size buffer that is summed at once: a sum per
    # strip would add in another order and change the last bit.
    def score_rows(top, bottom, kept):
        rows = slice(top, bottom)
        gf, of = np.empty(kept.shape), np.empty(kept.shape)
        _sobel(f, top, bottom, gf, of)
        _kept((edges_a.strength[rows], edges_a.orientation[rows], weight_a[rows]),
              (edges_b.strength[rows], edges_b.orientation[rows], weight_b[rows]),
              gf, of, k, kept)

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
    """Bundle all four quality metrics of a fused raster.

    Each source's joint counts with the fused raster are built once: both
    feed the MIM, and the column sums of the first are the fused raster's
    level counts, the same int64 counts as `histogram256(f)`, so the
    entropy is `entropy(f)`'s to the bit without another pass over f.
    """
    a, f = check_pair(a, f, "first source", "fused image")  # `qabf`'s checks
    b, f = check_pair(b, f, "second source", "fused image")
    q, degenerate = qabf(a, b, f, constants)
    joint_af, joint_bf = joint_counts(a, f), joint_counts(b, f)
    return MetricsRecord(
        entropy_bits=_entropy(joint_af.sum(axis=0)),
        sd=std_dev(f),
        mim_bits=_mutual_information(joint_af) + _mutual_information(joint_bf),
        qabf=q,
        degenerate_qabf=degenerate,
    )
