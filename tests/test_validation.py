"""Every rejection branch of `momentfuse.validation`, reached through the
public entry points that check their inputs, with its exact message."""

import warnings

import numpy as np
import pytest

from momentfuse.batch import run_pair
from momentfuse.filters import Kernel3, convolve3, identity_kernel
from momentfuse.fusion import (
    AverageFuser,
    MomentFuser,
    PcaFuser,
    decision_map,
    local_moment_map,
    pca_weights,
)
from momentfuse.image import pad, quantize
from momentfuse.metrics import QabfConstants, evaluate, joint_histogram, qabf
from momentfuse.pgm import save_pgm, write_pgm
from momentfuse.synthetic import random_texture
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


@pytest.mark.parametrize("exponent, shown", [
    (0, "0"), (0.0, "0.0"), (-0.0, "-0.0"), (np.float32(0), "0.0"),
], ids=["int", "float", "negative-zero", "float32"])
def test_qabf_constants_reject_a_weight_exponent_of_zero(exponent, shown):
    # 0.0 ** 0.0 is 1: every gradient-free pixel would weigh 1, and two
    # constant sources would score as not degenerate.
    with pytest.raises(ValueError) as info:
        QabfConstants(weight_exponent=exponent)
    assert str(info.value) == f"weight_exponent must be > 0, got {shown}"


@pytest.mark.parametrize("img, margin, message", [
    (np.zeros(5), 1, "image must be 2-D (height, width), got ndim=1"),
    (np.zeros((1, 4, 5), np.uint8), 1, "image must be 2-D (height, width), got ndim=3"),
    # An empty raster has no edge pixel to repeat into the margin.
    (np.zeros((0, 3)), 1, "image has a zero dimension: (0, 3)"),
    (np.zeros((0, 3), np.uint8), 2, "image has a zero dimension: (0, 3)"),
    (np.zeros((3, 0), np.int16), 0, "image has a zero dimension: (3, 0)"),
    (GOOD_FLOAT, True, "margin must be an integer, got True"),
    (GOOD_FLOAT, 1.5, "margin must be an integer, got 1.5"),
    (GOOD_FLOAT, -1, "margin must be >= 0, got -1"),
], ids=["1-D", "3-D", "no rows", "no rows uint8", "no columns", "bool margin",
        "float margin", "negative margin"])
def test_pad_rejects_a_malformed_raster_or_margin(img, margin, message):
    with pytest.raises(ValueError) as info:
        pad(img, margin)
    assert str(info.value) == message


@pytest.mark.parametrize("coeffs, dtype", [
    ([["1"] * 3] * 3, "<U1"),  # a cast parses text
    (np.ones((3, 3), bool), "bool"),  # and makes True 1.0
    (np.full((3, 3), 1 + 2j), "complex128"),  # and drops the imaginary part
    ([[1.0, 2.0, None]] * 3, "object"),
], ids=["str", "bool", "complex", "object"])
def test_kernel3_rejects_coefficients_a_cast_would_turn_into_numbers(coeffs, dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before the rejection
        with pytest.raises(ValueError) as info:
            Kernel3(coeffs)
    assert str(info.value) == (
        f"kernel coefficients must be an integer or float array, got dtype={dtype}")


def test_convolve3_rejects_a_mask_that_is_not_a_kernel3():
    with pytest.raises(ValueError) as info:
        convolve3(GOOD_FLOAT, np.ones((3, 3)))
    assert str(info.value) == "kernel must be a Kernel3, got ndarray"


@pytest.mark.parametrize("rng, name", [(None, "NoneType"),
                                       (np.random.RandomState(0), "RandomState"),
                                       (0, "int")],
                         ids=["None", "RandomState", "seed"])
def test_random_texture_rejects_an_rng_that_is_not_a_generator(rng, name):
    with pytest.raises(ValueError) as info:
        random_texture(4, 4, rng)
    assert str(info.value) == f"rng must be a numpy.random.Generator, got {name}"


@pytest.mark.parametrize("bad", ["no", None, 1, np.array([True])],
                         ids=["str", "None", "int", "array"])
@pytest.mark.parametrize("entry, name", [
    (lambda v: local_moment_map(GOOD_FLOAT, magnitude=v), "magnitude"),
    (lambda v: MomentFuser(magnitude=v).fuse(GOOD_U8, GOOD_U8), "magnitude"),
    (lambda v: save_pgm(GOOD_U8, binary=v), "binary"),
    (lambda v: run_pair(GOOD_U8, GOOD_U8, keep_results=v), "keep_results"),
], ids=["local_moment_map", "fuse", "save_pgm", "run_pair"])
def test_boolean_flags_reject_a_value_that_is_not_a_bool(entry, name, bad):
    # Any other value would pick a branch by its truth: "no" is true.
    with pytest.raises(ValueError) as info:
        entry(bad)
    assert str(info.value) == f"{name} must be a bool, got {bad!r}"


def test_write_pgm_rejects_a_binary_that_is_not_a_bool_and_writes_nothing(tmp_path):
    path = tmp_path / "out.pgm"
    with pytest.raises(ValueError) as info:
        write_pgm(path, GOOD_U8, binary="no")
    assert str(info.value) == "binary must be a bool, got 'no'"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_boolean_flags_take_python_and_numpy_bools(flag):
    assert save_pgm(GOOD_U8, binary=flag).startswith(b"P5" if flag else b"P2")
    kept = run_pair(GOOD_U8, GOOD_U8, ["average"], keep_results=flag)[0].result
    assert (kept is not None) == bool(flag)
