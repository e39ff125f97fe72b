"""Metric identities, oracles, and the edge preservation score."""

import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentfuse import fusion, image, metrics, validation
from momentfuse.batch import run_pair
from momentfuse.fusion import MomentFuser
from momentfuse.metrics import (
    MAX_WEIGHT_EXPONENT,
    EdgeMap,
    QabfConstants,
    _kept,
    entropy,
    evaluate,
    histogram256,
    joint_histogram,
    mim,
    mutual_information,
    qabf,
    sobel_edges,
    std_dev,
)
from momentfuse.synthetic import synthesize_pairs
from momentfuse.validation import ShapeMismatchError


def brute_force_mi(a, f):
    """Independent oracle: dict-of-counts joint histogram and an explicit
    probability sum."""
    counts = {}
    for u, v in zip(a.ravel().tolist(), f.ravel().tolist()):
        counts[(u, v)] = counts.get((u, v), 0) + 1
    total = a.size
    pa, pf = {}, {}
    for (u, v), n in counts.items():
        pa[u] = pa.get(u, 0) + n
        pf[v] = pf.get(v, 0) + n
    acc = 0.0
    for (u, v), n in counts.items():
        p_uv = n / total
        acc += p_uv * math.log2(p_uv / ((pa[u] / total) * (pf[v] / total)))
    return acc


def naive_sobel(img):
    """Independent oracle: explicit stencil loops with clamped indices."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
    h, w = img.shape
    sx = np.zeros((h, w))
    sy = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            ax = ay = 0.0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr = min(max(r + dr, 0), h - 1)
                    cc = min(max(c + dc, 0), w - 1)
                    ax += kx[dr + 1][dc + 1] * float(img[rr, cc])
                    ay += ky[dr + 1][dc + 1] * float(img[rr, cc])
            sx[r, c] = ax
            sy[r, c] = ay
    return sx, sy


def checkerboard(h, w, lo=0, hi=255):
    img = np.full((h, w), lo, dtype=np.uint8)
    img[(np.add.outer(np.arange(h), np.arange(w)) % 2) == 1] = hi
    return img


def test_histogram_counts():
    img = np.array([[0, 0, 255], [3, 3, 3]], dtype=np.uint8)
    hist = histogram256(img)
    assert hist[0] == 2 and hist[3] == 3 and hist[255] == 1
    assert hist.sum() == img.size


def test_entropy_constant_is_zero():
    assert entropy(np.full((10, 10), 42, dtype=np.uint8)) == 0.0


def test_entropy_two_equal_bins_is_one_bit():
    img = np.zeros((2, 8), dtype=np.uint8)
    img[1, :] = 255
    assert entropy(img) == pytest.approx(1.0)


def test_entropy_uniform_256_levels_is_eight_bits():
    img = np.arange(256, dtype=np.uint8).reshape(256, 1)
    assert entropy(img) == pytest.approx(8.0)


def test_entropy_bounds_and_relabel_invariance():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
    h = entropy(img)
    assert 0.0 <= h <= 8.0
    assert entropy((255 - img).astype(np.uint8)) == pytest.approx(h, abs=1e-12)
    perm = rng.permutation(256).astype(np.uint8)
    assert entropy(perm[img]) == pytest.approx(h, abs=1e-12)


def test_std_dev_constant_and_two_point():
    assert std_dev(np.full((7, 7), 9, dtype=np.uint8)) == 0.0
    img = np.zeros((2, 10), dtype=np.uint8)
    img[1, :] = 255
    assert std_dev(img) == pytest.approx(127.5)


def test_std_dev_matches_two_pass_oracle():
    rng = np.random.default_rng(16)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    mean = sum(img.ravel().tolist()) / img.size
    var = sum((float(v) - mean) ** 2 for v in img.ravel().tolist()) / img.size
    assert std_dev(img) == pytest.approx(math.sqrt(var), abs=1e-9)
    assert std_dev((255 - img).astype(np.uint8)) == pytest.approx(std_dev(img), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(img=st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
    lambda shape: arrays(np.uint8, shape)))
@example(img=np.zeros((1, 1), np.uint8))
@example(img=np.full((1, 1), 255, np.uint8))
@example(img=np.full((9, 13), 77, np.uint8))
def test_std_dev_has_the_bits_of_the_widened_raster(img):
    # std_dev takes np.std of the uint8 raster itself; numpy sums it and its
    # deviations in float64, so the result is the widened raster's to the bit.
    assert np.float64(std_dev(img)).tobytes() == np.std(image.widen(img)).tobytes()


def test_mi_self_equals_entropy():
    rng = np.random.default_rng(19)
    for _ in range(5):
        img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        assert mutual_information(img, img) == pytest.approx(entropy(img), abs=1e-9)


def test_mi_with_constant_is_zero():
    rng = np.random.default_rng(20)
    img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    assert mutual_information(img, np.full_like(img, 5)) == pytest.approx(0.0, abs=1e-12)


def test_mi_checkerboard_bijection_is_one_bit():
    board = checkerboard(8, 8)
    inverted = (255 - board).astype(np.uint8)
    assert mutual_information(board, inverted) == pytest.approx(1.0, abs=1e-12)


def test_mi_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        f = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        assert mutual_information(a, f) == pytest.approx(brute_force_mi(a, f), abs=1e-9)


def test_mi_symmetry_nonnegativity_upper_bound():
    rng = np.random.default_rng(27)
    for _ in range(10):
        a = rng.integers(0, 64, size=(10, 10), dtype=np.uint8)
        f = rng.integers(0, 64, size=(10, 10), dtype=np.uint8)
        m = mutual_information(a, f)
        assert m == pytest.approx(mutual_information(f, a), abs=1e-9)
        assert m >= -1e-12
        assert m <= min(entropy(a), entropy(f)) + 1e-9


def test_mi_rejects_mismatched_shapes():
    with pytest.raises(ShapeMismatchError):
        mutual_information(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))


def test_joint_histogram_totals():
    a = np.array([[1, 1], [2, 3]], dtype=np.uint8)
    f = np.array([[5, 5], [5, 9]], dtype=np.uint8)
    joint = joint_histogram(a, f)
    assert joint[1, 5] == 2 and joint[2, 5] == 1 and joint[3, 9] == 1
    assert joint.sum() == 4


def test_mim_composition():
    rng = np.random.default_rng(31)
    a = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    b = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    f = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    expected = mutual_information(a, f) + mutual_information(b, f)
    assert mim(a, b, f) == pytest.approx(expected, abs=1e-12)


def test_mim_identities():
    rng = np.random.default_rng(32)
    img = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    assert mim(img, img, img) == pytest.approx(2.0 * entropy(img), abs=1e-9)
    assert mim(img, img, np.zeros_like(img)) == pytest.approx(0.0, abs=1e-12)


def test_sobel_constant_image_has_no_gradient():
    edges = sobel_edges(np.full((6, 6), 80, dtype=np.uint8))
    assert np.all(edges.strength == 0.0)
    assert np.all(edges.orientation == math.pi / 2)


def test_sobel_vertical_step_edge():
    img = np.zeros((6, 8), dtype=np.uint8)
    img[:, 4:] = 200
    edges = sobel_edges(img)
    step_cols = edges.strength[:, 3:5]
    assert np.all(step_cols > 0.0)
    assert np.all(edges.strength[:, :2] == 0.0)
    # Horizontal gradient: sy = 0, orientation 0 along the step.
    assert np.allclose(edges.orientation[:, 3:5], 0.0, atol=1e-12)
    assert edges.strength.max() == step_cols.max()


def test_sobel_matches_hand_stencil_oracle():
    rng = np.random.default_rng(41)
    img = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
    sx, sy = naive_sobel(img)
    edges = sobel_edges(img)
    assert np.allclose(edges.strength, np.hypot(sx, sy), atol=1e-12)
    expected_orientation = np.where(sx == 0, math.pi / 2, np.arctan(sy / np.where(sx == 0, 1.0, sx)))
    assert np.allclose(edges.orientation, expected_orientation, atol=1e-12)
    bigger = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
    sx, sy = naive_sobel(bigger)
    assert np.allclose(sobel_edges(bigger).strength, np.hypot(sx, sy), atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(img=st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.uint8, shape)))
@example(img=np.array([[0, 255], [255, 0]], dtype=np.uint8))
# The int16 range edges: a 0|255 step gives sx or sy = +-1020.
@example(img=np.repeat([[0, 0, 255, 255]], 4, axis=0).astype(np.uint8))
@example(img=np.repeat([[255, 255, 0, 0]], 4, axis=0).astype(np.uint8))
@example(img=np.repeat([[0], [0], [255], [255]], 4, axis=1).astype(np.uint8))
@example(img=np.repeat([[255], [255], [0], [0]], 4, axis=1).astype(np.uint8))
# A one-pixel side is padded from a single row or column.
@example(img=np.array([[0, 255, 7, 255, 0]], dtype=np.uint8))
@example(img=np.array([[0], [255], [7], [255], [0]], dtype=np.uint8))
def test_sobel_equals_stencil_oracle_exactly(img):
    # uint8 samples make every partial sum an integer in [-1020, 1020], so
    # the int16 passes must reproduce the 3x3 float stencil bit for bit;
    # arctan is numpy's on both sides, and pi/2 fills every pixel where
    # sx == 0.
    sx, sy = naive_sobel(img)
    edges = sobel_edges(img)
    assert np.array_equal(edges.strength, np.hypot(sx, sy))
    ratio = sy / np.where(sx == 0, 1.0, sx)
    expected_orientation = np.where(sx == 0, math.pi / 2, np.arctan(ratio))
    assert np.array_equal(edges.orientation, expected_orientation)


@settings(max_examples=200, deadline=None)
@given(img=st.tuples(st.integers(1, 12), st.integers(1, 9)).flatmap(
    lambda shape: arrays(np.uint8, shape)), data=st.data())
def test_sobel_of_a_strip_with_halo_equals_the_full_raster_rows(img, data):
    # A strip's rows [top, bottom) read rows [top - 1, bottom + 1), which
    # repeat the edge row where they leave the image.
    h = img.shape[0]
    top = data.draw(st.integers(0, h - 1))
    bottom = data.draw(st.integers(top + 1, h))
    strength, orientation = np.empty((2, bottom - top, img.shape[1]))
    metrics._sobel(img, top, bottom, strength, orientation)
    full = sobel_edges(img)
    assert np.array_equal(strength, full.strength[top:bottom])
    assert np.array_equal(orientation, full.orientation[top:bottom])


def test_orientation_equals_masked_form_on_every_derivative_pair():
    # Sobel derivatives of uint8 rasters are the integers in [-1020, 1020].
    # On every pair of them the unmasked ratio, +inf where sx == 0, must give
    # the masked expression's bits, so arctan(+inf) must be exactly pi/2.
    values = np.arange(-1020.0, 1021.0)
    sy = values[None, :]
    for block in np.array_split(values, 8):
        sx = block[:, None]
        expected = np.where(sx == 0, math.pi / 2, np.arctan(sy / np.where(sx == 0, 1.0, sx)))
        orientation = np.empty(expected.shape)
        metrics._orientation(sx, sy, orientation)
        assert np.array_equal(orientation, expected)


def test_orientation_lies_in_closed_half_pi_range_on_every_derivative_pair():
    # `_kept` folds orientation differences without a clip, which
    # holds only while every orientation lies in [-pi/2, pi/2].
    values = np.arange(-1020.0, 1021.0)
    for block in np.array_split(values, 8):
        orientation = np.empty((len(block), len(values)))
        metrics._orientation(block[:, None], values[None, :], orientation)
        assert orientation.min() >= -math.pi / 2
        assert orientation.max() <= math.pi / 2


def test_strength_equals_hypot_on_every_derivative_pair():
    # The exact integer sum's sqrt, with np.hypot on the suspect table's
    # pixels, must give np.hypot's bits of the float64 derivatives on every
    # pair a uint8 raster can produce, signs and argument order included.
    values = np.arange(-1020, 1021, dtype=np.int16)
    for block in np.array_split(values, 8):
        sx, sy = np.broadcast_arrays(block[:, None], values[None, :])
        expected = np.hypot(sx.astype(np.float64), sy.astype(np.float64))
        strength = np.empty(sx.shape)
        metrics._strength(sx, sy, strength)
        assert strength.dtype == np.float64
        assert strength.tobytes() == expected.tobytes()


def test_orientation_of_int16_derivatives_equals_the_float_expression_on_every_pair():
    values = np.arange(-1020, 1021, dtype=np.int16)
    for block in np.array_split(values, 8):
        sx, sy = block[:, None], values[None, :]
        fx, fy = sx.astype(np.float64), sy.astype(np.float64)
        with np.errstate(divide="ignore"):
            expected = np.arctan(np.where(fx != 0.0, fy, 1.0) / fx)
        orientation = np.empty(expected.shape)
        metrics._orientation(sx, sy, orientation)
        assert orientation.dtype == np.float64
        assert orientation.tobytes() == expected.tobytes()


def test_sobel_keeps_its_derivatives_int16(monkeypatch):
    # The derivatives that reach `_strength` and `_orientation` must be the
    # stencil's integers, in int16, on 1-row and 1-column rasters too.
    seen = []

    def capture(fn):
        def wrapper(sx, sy, out):
            seen.append((fn.__name__, sx, sy))
            fn(sx, sy, out)
        return wrapper

    monkeypatch.setattr(metrics, "_strength", capture(metrics._strength))
    monkeypatch.setattr(metrics, "_orientation", capture(metrics._orientation))
    rng = np.random.default_rng(29)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 3), (17, 13), (40, 64)]
    rasters = [rng.integers(0, 256, size=shape, dtype=np.uint8) for shape in shapes]
    rasters += [np.where(rng.random(shape) < 0.5, 0, 255).astype(np.uint8) for shape in shapes]
    for img in rasters:
        seen.clear()
        metrics._sobel(img, 0, img.shape[0], *np.empty((2, *img.shape)))
        expected_sx, expected_sy = naive_sobel(img)
        assert sorted(name for name, _, _ in seen) == ["_orientation", "_strength"]
        for _, sx, sy in seen:
            assert sx.dtype == np.int16 and sy.dtype == np.int16
            assert np.array_equal(sx, expected_sx) and np.array_equal(sy, expected_sy)


def test_suspect_table_is_built_once_by_two_threads_that_need_it_first(monkeypatch, capfd):
    # The first Sobel of a process may run in two pair workers at once; the
    # table must be built once, and neither may read it half-filled.
    rng = np.random.default_rng(71)
    img = rng.integers(0, 256, size=(300, 300), dtype=np.uint8)
    expected = sobel_edges(img)
    build = metrics._build_suspects
    builds = []

    def counting_build():
        builds.append(threading.get_ident())
        time.sleep(0.05)  # the other thread reaches the table meanwhile
        return build()

    monkeypatch.setattr(metrics, "_suspect_table", None)
    monkeypatch.setattr(metrics, "_build_suspects", counting_build)
    threads_before = threading.active_count()
    start = threading.Barrier(2)
    results = [None, None]

    def work(index):
        start.wait(timeout=10)
        results[index] = sobel_edges(img)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workers = [threading.Thread(target=work, args=(index,)) for index in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert len(builds) == 1
    for edges in results:
        assert edges.strength.tobytes() == expected.strength.tobytes()
        assert edges.orientation.tobytes() == expected.orientation.tobytes()
    assert threading.active_count() == threads_before
    assert capfd.readouterr().out == ""
    assert caught == []


def test_suspect_table_build_needs_little_scratch_memory():
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = metrics._build_suspects()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert table.dtype == bool and table.shape == ((2 * 1020 ** 2 >> 3) + 1,)
    assert peak - before - table.nbytes <= 256 * 1024


def test_sobel_orientation_range():
    rng = np.random.default_rng(43)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    orient = sobel_edges(img).orientation
    assert np.all(orient > -math.pi / 2)
    assert np.all(orient <= math.pi / 2)


def q_max(k: QabfConstants) -> float:
    """Score of a pixel with perfect strength and orientation agreement."""
    qg = k.gamma_g / (1.0 + math.exp(k.kappa_g * (1.0 - k.sigma_g)))
    qa = k.gamma_a / (1.0 + math.exp(k.kappa_a * (1.0 - k.sigma_a)))
    return qg * qa


def test_qabf_in_unit_interval_on_random_triples():
    rng = np.random.default_rng(50)
    for _ in range(200):
        a = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        f = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        score, degenerate = qabf(a, b, f)
        assert not degenerate
        assert 0.0 <= score <= 1.0


def test_qabf_all_constant_is_degenerate_zero():
    img = np.full((8, 8), 7, dtype=np.uint8)
    score, degenerate = qabf(img, img, img)
    assert score == 0.0
    assert degenerate


def test_qabf_identical_ramp_hits_closed_form_maximum():
    ramp = np.tile((np.arange(32, dtype=np.uint8) * 8), (16, 1))
    score, degenerate = qabf(ramp, ramp, ramp)
    assert not degenerate
    assert score == pytest.approx(q_max(QabfConstants()), abs=1e-9)


def test_qabf_symmetric_in_sources():
    rng = np.random.default_rng(52)
    a = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    b = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    f = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    assert qabf(a, b, f)[0] == pytest.approx(qabf(b, a, f)[0], abs=1e-12)


def test_qabf_custom_constants_change_score():
    ramp = np.tile((np.arange(16, dtype=np.uint8) * 16), (8, 1))
    loose = QabfConstants(sigma_g=0.1, sigma_a=0.1)
    assert qabf(ramp, ramp, ramp, loose)[0] == pytest.approx(q_max(loose), abs=1e-9)


def test_qabf_constants_validation():
    with pytest.raises(ValueError):
        QabfConstants(gamma_g=1.5)
    with pytest.raises(ValueError):
        QabfConstants(gamma_a=0.0)
    with pytest.raises(ValueError):
        QabfConstants(weight_exponent=-1.0)
    with pytest.raises(ValueError):
        QabfConstants(kappa_g=float("nan"))


@pytest.mark.parametrize("field, value", [
    ("gamma_g", "0.5"), ("kappa_a", None), ("sigma_g", [0.5]),
    ("weight_exponent", True), ("sigma_a", np.True_),
])
def test_qabf_constants_reject_a_non_number_or_bool(field, value):
    # A string used to raise TypeError from math.isfinite, and True passed
    # as 1.0.
    message = f"{field} must be a real number, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        QabfConstants(**{field: value})


def test_qabf_constants_accept_numpy_numbers():
    k = QabfConstants(gamma_g=np.float64(0.5), kappa_g=np.int64(-15),
                      sigma_a=np.float32(0.75), weight_exponent=np.int8(2))
    assert (k.gamma_g, k.kappa_g, k.sigma_a, k.weight_exponent) == (0.5, -15, 0.75, 2)


@pytest.mark.parametrize("exponent", [math.nextafter(MAX_WEIGHT_EXPONENT, math.inf), 200.0])
def test_qabf_constants_reject_a_weight_exponent_above_the_bound(exponent):
    # At 200 the weights of a 64^2 pair overflowed, and inf / inf scored NaN.
    message = f"weight_exponent must be at most {MAX_WEIGHT_EXPONENT}, got {exponent}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        QabfConstants(weight_exponent=exponent)


def test_qabf_constants_are_frozen():
    # A field assigned after construction skipped every check: with
    # weight_exponent = 200 the seed-0 64^2 pair scored NaN.
    k = QabfConstants()
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.weight_exponent = 200.0
    message = f"weight_exponent must be at most {MAX_WEIGHT_EXPONENT}, got 200.0"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        dataclasses.replace(k, weight_exponent=200.0)
    assert k == QabfConstants()


def test_weight_total_at_the_exponent_bound_is_finite_on_any_raster():
    # The strongest edge of a uint8 raster, raised to the bound, summed over
    # two sources of the most pixels numpy could index.
    strongest = math.hypot(metrics._DERIVATIVE_MAX, metrics._DERIVATIVE_MAX)
    assert 2 * sys.maxsize * strongest ** MAX_WEIGHT_EXPONENT < sys.float_info.max
    # The 64^2 pair whose score was NaN at exponent 200 scores at the bound.
    _, pair = synthesize_pairs(1, sigma=2.0, seed=0, height=64, width=64)[0]
    fused = MomentFuser().fuse(pair.a, pair.b).fused_u8
    assert sobel_edges(pair.a).strength.max() <= strongest
    k = QabfConstants(weight_exponent=MAX_WEIGHT_EXPONENT)
    score, degenerate = qabf(pair.a, pair.b, fused, k)
    assert 0.0 <= score <= 1.0 and not degenerate


def expression_preservation(src, fused, k):
    """The edge preservation of one source as one numpy expression, as it
    was written before it ran in place; `_kept` must match it bit for bit."""
    gs, gf = src.strength, fused.strength
    gmax = np.maximum(gs, gf)
    with np.errstate(invalid="ignore"):
        g_rel = np.where(gmax > 0.0, np.minimum(gs, gf) / gmax, 0.0)
    diff = np.abs(src.orientation - fused.orientation)
    diff = np.minimum(diff, math.pi - diff)
    a_rel = 1.0 - np.clip(diff, 0.0, math.pi / 2) / (math.pi / 2)
    qg = k.gamma_g / (1.0 + np.exp(k.kappa_g * (g_rel - k.sigma_g)))
    qa = k.gamma_a / (1.0 + np.exp(k.kappa_a * (a_rel - k.sigma_a)))
    return np.where(gs > 0.0, qg * qa, 0.0)


def expression_kept(edges_a, edges_b, edges_f, weight_a, weight_b, k):
    """weight_a * Q_a + weight_b * Q_b from the expression oracle alone."""
    return (expression_preservation(edges_a, edges_f, k) * weight_a
            + expression_preservation(edges_b, edges_f, k) * weight_b)


def assert_kept_equals_expression_form(edges_a, edges_b, edges_f, k, exponent):
    weight_a, weight_b = edges_a.strength ** exponent, edges_b.strength ** exponent
    expected = expression_kept(edges_a, edges_b, edges_f, weight_a, weight_b, k)
    # `_kept` writes into the fused strength, so it gets a copy.
    kept = np.empty(expected.shape)
    _kept((edges_a.strength, edges_a.orientation, weight_a),
          (edges_b.strength, edges_b.orientation, weight_b),
          edges_f.strength.copy(), edges_f.orientation, k, kept)
    assert np.array_equal(kept, expected)


HALF_PI = math.pi / 2
JUST_ABOVE_MINUS_HALF_PI = float(np.nextafter(-HALF_PI, 0.0))
# (gs_a, gs_b, gf, o_a, o_b, o_f) held by every drawn map: for each source,
# gs == 0 with gf > 0, gmax == 0, gf == 0 with gs > 0, and orientation
# differences near +pi and -pi.
PRESERVATION_EDGE_CASES = [
    (0.0, 4.0, 3.0, 0.25, -1.5, -0.5),
    (0.0, 0.0, 0.0, HALF_PI, HALF_PI, HALF_PI),
    (5.0, 0.0, 5.0, HALF_PI, 0.25, JUST_ABOVE_MINUS_HALF_PI),
    (2.0, 5.0, 7.0, JUST_ABOVE_MINUS_HALF_PI, -0.5, HALF_PI),
    (3.0, 5.0, 7.0, -0.5, JUST_ABOVE_MINUS_HALF_PI, HALF_PI),
    (3.0, 6.0, 7.0, 0.0, HALF_PI, JUST_ABOVE_MINUS_HALF_PI),
    (4.0, 6.0, 0.0, -1.5, 1.5, 1.5),
    (0.0, 6.0, 0.0, 1.0, -1.0, 0.0),
]
PRESERVATION_CONSTANTS = [QabfConstants(), QabfConstants(sigma_g=0.1, sigma_a=0.1, kappa_g=-3.0)]
WEIGHT_EXPONENTS = [0.0, 1.0, 2.0]

strengths = st.one_of(st.just(0.0), st.floats(0.0, 2000.0))
orientations = st.one_of(st.sampled_from([HALF_PI, JUST_ABOVE_MINUS_HALF_PI, 0.0]),
                         st.floats(-HALF_PI, HALF_PI))


@settings(max_examples=300, deadline=None)
@given(pixels=st.lists(st.tuples(*[strengths] * 3, *[orientations] * 3), max_size=40),
       k=st.sampled_from(PRESERVATION_CONSTANTS), exponent=st.sampled_from(WEIGHT_EXPONENTS))
def test_preservation_equals_expression_form_exactly(pixels, k, exponent):
    gs_a, gs_b, gf, o_a, o_b, o_f = np.array(PRESERVATION_EDGE_CASES + pixels).T.reshape(6, 1, -1)
    assert_kept_equals_expression_form(EdgeMap(gs_a, o_a), EdgeMap(gs_b, o_b), EdgeMap(gf, o_f),
                                       k, exponent)


@settings(max_examples=100, deadline=None)
@given(images=st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: st.tuples(
        *[arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 9, 255]))] * 2,
        arrays(np.uint8, shape))),
       k=st.sampled_from(PRESERVATION_CONSTANTS), exponent=st.sampled_from(WEIGHT_EXPONENTS))
def test_preservation_of_sobel_maps_equals_expression_form_exactly(images, k, exponent):
    assert_kept_equals_expression_form(*(sobel_edges(img) for img in images), k, exponent)


def test_evaluate_bundles_the_four_metrics():
    rng = np.random.default_rng(60)
    a = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    b = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    f = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    record = evaluate(a, b, f)
    assert record.entropy_bits == entropy(f)
    assert record.sd == std_dev(f)
    assert record.mim_bits == mim(a, b, f)
    assert (record.qabf, record.degenerate_qabf) == qabf(a, b, f)


def test_evaluate_degenerate_composition():
    img = np.full((6, 6), 3, dtype=np.uint8)
    record = evaluate(img, img, img)
    assert record.entropy_bits == 0.0
    assert record.sd == 0.0
    assert record.mim_bits == pytest.approx(0.0, abs=1e-12)
    assert record.qabf == 0.0 and record.degenerate_qabf


def test_evaluate_identical_nonconstant_triple():
    rng = np.random.default_rng(62)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    record = evaluate(img, img, img)
    assert record.mim_bits == pytest.approx(2.0 * entropy(img), abs=1e-9)
    assert not record.degenerate_qabf


def stencil_edges(img):
    """Edge map of the stencil oracle, with numpy's arctan and the pi/2 fill."""
    sx, sy = naive_sobel(img)
    ratio = sy / np.where(sx == 0, 1.0, sx)
    return EdgeMap(strength=np.hypot(sx, sy),
                   orientation=np.where(sx == 0, math.pi / 2, np.arctan(ratio)))


def full_raster_qabf(a, b, f, k):
    """`qabf` as it ran before row strips, on full-size edge maps of the
    stencil oracle and the expression oracle's preservation maps."""
    edges_a, edges_b, edges_f = (stencil_edges(img) for img in (a, b, f))
    weight_a = edges_a.strength ** k.weight_exponent
    weight_b = edges_b.strength ** k.weight_exponent
    total = float(np.sum(weight_a) + np.sum(weight_b))
    if total == 0.0:
        return 0.0, True
    kept = expression_kept(edges_a, edges_b, edges_f, weight_a, weight_b, k)
    return float(np.sum(kept) / total), False


@settings(max_examples=200, deadline=None)
@given(
    images=st.tuples(st.integers(1, 40), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(*[arrays(np.uint8, shape)] * 3)),
    strip_pixels=st.sampled_from([1, 7, 64]),
    workers=st.sampled_from([1, 3]),
)
def test_sobel_and_qabf_are_tiling_invariant(images, strip_pixels, workers):
    a, b, f = images
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_STRIP_PIXELS", strip_pixels)
        mp.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))
        for k in (QabfConstants(), QabfConstants(weight_exponent=2.0)):
            assert qabf(a, b, f, k) == full_raster_qabf(a, b, f, k)
        edges = sobel_edges(f)
    expected = stencil_edges(f)
    assert np.array_equal(edges.strength, expected.strength)
    assert np.array_equal(edges.orientation, expected.orientation)


def test_run_pair_calls_traced_functions_on_the_calling_thread(monkeypatch):
    # The benchmark's span tracer keeps one stack shared by all threads, so
    # the functions it swaps must never run on a strip worker. The strips'
    # private kernels do run on workers here, which shows the pool is used.
    # Every fuser rounds its strips with the unchecked `round_u8`, so
    # `run_pair` makes no full-raster finiteness scan: it never reaches
    # `quantize` or `check_image_float`.
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 64)
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, 3))
    threads = {}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    spied = [(metrics.sobel_edges, "sobel_edges"), (validation.check_image_float, "check_float"),
             (image.quantize, "quantize"), (metrics._sobel, "_sobel"),
             (metrics._kept, "_kept")]
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "momentfuse":
            continue
        for attr, value in list(vars(module).items()):
            for fn, name in spied:
                if value is fn:
                    monkeypatch.setattr(module, attr, spy(name, fn))
    rng = np.random.default_rng(70)
    a, b = rng.integers(0, 256, size=(2, 40, 16), dtype=np.uint8)
    run_pair(a, b)
    caller = {threading.get_ident()}
    assert threads["sobel_edges"] == caller
    assert "quantize" not in threads and "check_float" not in threads
    assert threads["_sobel"] - caller and threads["_kept"] - caller


u8_rasters = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: st.tuples(*[arrays(np.uint8, shape)] * 3))


@settings(max_examples=200, deadline=None)
@given(images=u8_rasters)
def test_mutual_information_is_symmetric(images):
    a, f, _ = images
    # The transposed joint histogram sums its cells in another order, so
    # the two agree to rounding, not to the bit.
    assert mutual_information(a, f) == pytest.approx(mutual_information(f, a), rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(images=u8_rasters)
@example(images=(np.arange(256, dtype=np.uint8).reshape(16, 16),) * 3)
def test_entropy_lies_in_0_to_8_bits_and_is_never_negative_zero(images):
    bits = entropy(images[0])
    assert 0.0 <= bits <= 8.0
    assert math.copysign(1.0, bits) == 1.0


@settings(max_examples=200, deadline=None)
@given(images=u8_rasters)
@example(images=(np.full((5, 4), 7, np.uint8),) * 3)  # one level: entropy's -0.0 case
@example(images=tuple(np.full((1, 1), level, np.uint8) for level in (0, 9, 255)))
def test_evaluate_entropy_and_mim_are_the_public_functions_bits(images):
    a, b, f = images
    record = evaluate(a, b, f)
    assert record.entropy_bits.hex() == entropy(f).hex()
    assert record.mim_bits.hex() == mim(a, b, f).hex()


def test_evaluate_builds_two_joint_counts_and_no_histogram(monkeypatch):
    rng = np.random.default_rng(64)
    a, b, f = rng.integers(0, 256, size=(3, 20, 9), dtype=np.uint8)
    expected = evaluate(a, b, f)
    built = []
    joint_counts = metrics.joint_counts
    monkeypatch.setattr(metrics, "joint_counts",
                        lambda x, y: built.append((x, y)) or joint_counts(x, y))
    monkeypatch.setattr(metrics, "histogram256", None)
    assert evaluate(a, b, f) == expected
    assert len(built) == 2 and built[0][0] is a and built[1][0] is b
    assert built[0][1] is f and built[1][1] is f


@settings(max_examples=200, deadline=None)
@given(images=u8_rasters)
def test_qabf_lies_in_0_to_1(images):
    score, degenerate = qabf(*images)
    assert 0.0 <= score <= 1.0
    # Degenerate exactly when neither source has an edge.
    assert degenerate == (not (sobel_edges(images[0]).strength.any()
                               or sobel_edges(images[1]).strength.any()))
