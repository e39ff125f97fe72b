"""Every rejection branch of `momentfuse.validation`, reached through the
public entry points that check their inputs, with its exact message."""

import numpy as np
import pytest

from momentfuse.batch import run_pair
from momentfuse.filters import convolve3, identity_kernel
from momentfuse.fusion import (
    AverageFuser,
    MomentFuser,
    PcaFuser,
    decision_map,
    local_moment_map,
    pca_weights,
)
from momentfuse.image import quantize
from momentfuse.metrics import evaluate, joint_histogram, qabf
from momentfuse.pgm import save_pgm
from momentfuse.validation import ShapeMismatchError

GOOD_U8 = np.zeros((4, 5), np.uint8)
GOOD_FLOAT = np.zeros((4, 5))

# (entry point called with the bad raster in one argument, the name it reports)
U8_ENTRY_POINTS = {
    "fuse-a": (lambda x: MomentFuser().fuse(x, GOOD_U8), "first source"),
    "fuse-b": (lambda x: MomentFuser().fuse(GOOD_U8, x), "second source"),
    "evaluate-a": (lambda x: evaluate(x, GOOD_U8, GOOD_U8), "first source"),
    "evaluate-b": (lambda x: evaluate(GOOD_U8, x, GOOD_U8), "second source"),
    "evaluate-f": (lambda x: evaluate(GOOD_U8, GOOD_U8, x), "fused image"),
    "qabf-a": (lambda x: qabf(x, GOOD_U8, GOOD_U8), "first source"),
    "qabf-b": (lambda x: qabf(GOOD_U8, x, GOOD_U8), "second source"),
    "qabf-f": (lambda x: qabf(GOOD_U8, GOOD_U8, x), "fused image"),
    "joint_histogram-a": (lambda x: joint_histogram(x, GOOD_U8), "first image"),
    "joint_histogram-b": (lambda x: joint_histogram(GOOD_U8, x), "second image"),
    "pca_weights-a": (lambda x: pca_weights(x, GOOD_U8), "first source"),
    "pca_weights-b": (lambda x: pca_weights(GOOD_U8, x), "second source"),
    "save_pgm": (save_pgm, "image"),
}

BAD_U8 = {
    "1-D": (np.zeros(5, np.uint8), "{} must be 2-D (height, width), got ndim=1"),
    "3-D": (np.zeros((1, 4, 5), np.uint8), "{} must be 2-D (height, width), got ndim=3"),
    "no rows": (np.zeros((0, 5), np.uint8), "{} has a zero dimension: (0, 5)"),
    "no columns": (np.zeros((4, 0), np.uint8), "{} has a zero dimension: (4, 0)"),
    "float": (np.zeros((4, 5)), "{} must be an integer array, got dtype=float64"),
    "above 255": (np.full((4, 5), 256, np.int64), "{} has samples outside [0, 255]"),
    "below 0": (np.full((4, 5), -1, np.int16), "{} has samples outside [0, 255]"),
}

FLOAT_ENTRY_POINTS = {
    "convolve3": (lambda x: convolve3(x, identity_kernel()), "image"),
    "local_moment_map": (local_moment_map, "image"),
    "decision_map-a": (lambda x: decision_map(x, GOOD_FLOAT), "first moment map"),
    "decision_map-b": (lambda x: decision_map(GOOD_FLOAT, x), "second moment map"),
    "quantize": (quantize, "image"),
}

BAD_FLOAT = {
    "1-D": (np.zeros(5), "{} must be 2-D (height, width), got ndim=1"),
    "3-D": (np.zeros((1, 4, 5)), "{} must be 2-D (height, width), got ndim=3"),
    "no rows": (np.zeros((0, 5)), "{} has a zero dimension: (0, 5)"),
    "no columns": (np.zeros((4, 0)), "{} has a zero dimension: (4, 0)"),
    "nan": (np.full((4, 5), np.nan), "{} contains non-finite samples"),
    # Each of these would cast to float64: to 0/1, without the imaginary
    # part, or parsed from text.
    "bool": (np.ones((4, 5), bool), "{} must be an integer or float array, got dtype=bool"),
    "complex": (np.full((4, 5), 1 + 5j),
                "{} must be an integer or float array, got dtype=complex128"),
    "str": (np.full((4, 5), "1.5"), "{} must be an integer or float array, got dtype=<U3"),
    "bytes": (np.full((4, 5), b"2"), "{} must be an integer or float array, got dtype=|S1"),
}


def assert_rejects(entry, name, bad, message):
    with pytest.raises(ValueError) as info:
        entry(bad)
    assert str(info.value) == message.format(name)


@pytest.mark.parametrize("bad", sorted(BAD_U8))
@pytest.mark.parametrize("entry", sorted(U8_ENTRY_POINTS))
def test_uint8_entry_points_reject_a_malformed_raster(entry, bad):
    assert_rejects(*U8_ENTRY_POINTS[entry], *BAD_U8[bad])


@pytest.mark.parametrize("bad", sorted(BAD_FLOAT))
@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRY_POINTS))
def test_float_entry_points_reject_a_malformed_raster(entry, bad):
    assert_rejects(*FLOAT_ENTRY_POINTS[entry], *BAD_FLOAT[bad])


TALL = np.zeros((5, 4), np.uint8)
SOURCES = "first source (4, 5) and second source (5, 4) must have identical dimensions"


@pytest.mark.parametrize("entry, message", [
    (lambda: run_pair(GOOD_U8, TALL), SOURCES),
    (lambda: pca_weights(GOOD_U8, TALL), SOURCES),
    (lambda: MomentFuser().fuse(GOOD_U8, TALL), SOURCES),
    (lambda: AverageFuser().fuse(GOOD_U8, TALL), SOURCES),
    (lambda: PcaFuser().fuse(GOOD_U8, TALL), SOURCES),
    (lambda: joint_histogram(GOOD_U8, TALL),
     "first image (4, 5) and second image (5, 4) must have identical dimensions"),
    (lambda: qabf(TALL, GOOD_U8, GOOD_U8),
     "first source (5, 4) and fused image (4, 5) must have identical dimensions"),
    (lambda: qabf(GOOD_U8, TALL, GOOD_U8),
     "second source (5, 4) and fused image (4, 5) must have identical dimensions"),
    (lambda: evaluate(GOOD_U8, GOOD_U8, TALL),
     "first source (4, 5) and fused image (5, 4) must have identical dimensions"),
], ids=["run_pair", "pca_weights", "moment", "average", "pca", "joint_histogram",
        "qabf-a", "qabf-b", "evaluate-f"])
def test_pair_checks_reject_mismatched_shapes(entry, message):
    with pytest.raises(ShapeMismatchError) as info:
        entry()
    assert str(info.value) == message


@pytest.mark.parametrize("bad", ["x", {"weight_exponent": 2.0}, 1.0],
                         ids=["str", "dict", "float"])
@pytest.mark.parametrize("entry", [
    lambda k: qabf(GOOD_U8, GOOD_U8, GOOD_U8, k),
    lambda k: evaluate(GOOD_U8, GOOD_U8, GOOD_U8, k),
    lambda k: run_pair(GOOD_U8, GOOD_U8, constants=k),
], ids=["qabf", "evaluate", "run_pair"])
def test_constants_that_are_not_qabf_constants_are_rejected(entry, bad):
    # Each used to fail on its first field read, with an AttributeError.
    with pytest.raises(ValueError) as info:
        entry(bad)
    assert str(info.value) == f"constants must be a QabfConstants or None, got {type(bad).__name__}"
