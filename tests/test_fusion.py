"""Decision-map semantics, the three fusers, and their invariants."""

import hashlib
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentfuse import filters, fusion, image
from momentfuse.filters import convolve3, high_boost_mask, preprocess
from momentfuse.fusion import (
    AverageFuser,
    MomentFuser,
    PcaFuser,
    decision_map,
    local_moment_map,
    make_fuser,
    pca_weights,
)
from momentfuse.image import quantize, widen
from momentfuse.synthetic import complementary_blur_pair, random_texture
from momentfuse.validation import ShapeMismatchError


def closed_form_pca_weights(a, b):
    """Independent oracle: population covariance, quadratic-formula
    eigenvalue, explicit eigenvector of a symmetric 2x2 matrix."""
    u = a.astype(float).ravel()
    v = b.astype(float).ravel()
    suu = np.mean((u - u.mean()) ** 2)
    svv = np.mean((v - v.mean()) ** 2)
    suv = np.mean((u - u.mean()) * (v - v.mean()))
    half_trace = (suu + svv) / 2.0
    lam = half_trace + math.sqrt(((suu - svv) / 2.0) ** 2 + suv * suv)
    if suv != 0.0:
        e1, e2 = lam - svv, suv
    else:
        e1, e2 = (1.0, 0.0) if suu >= svv else (0.0, 1.0)
    total = e1 + e2
    if total < 0:
        e1, e2, total = -e1, -e2, -total
    return e1 / total, e2 / total


def test_decision_map_strict_and_tie_cases():
    mx = np.array([[5.0, 4.0, 2.0]])
    my = np.array([[3.0, 4.0, 7.0]])
    d = decision_map(mx, my)
    assert d.tolist() == [[True, True, False]]  # tie goes to the first source


def test_decision_map_rejects_mismatched_shapes():
    with pytest.raises(ShapeMismatchError):
        decision_map(np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_stages_reject_non_finite(bad):
    clean = np.ones((3, 4))
    dirty = clean.copy()
    dirty[1, 2] = bad
    with pytest.raises(ValueError, match="^image contains non-finite samples$"):
        local_moment_map(dirty)
    with pytest.raises(ValueError, match="^first moment map contains non-finite samples$"):
        decision_map(dirty, clean)
    with pytest.raises(ValueError, match="^second moment map contains non-finite samples$"):
        decision_map(clean, dirty)


def test_decision_map_random_with_forced_ties():
    rng = np.random.default_rng(0)
    mx = rng.normal(size=(50, 50))
    my = rng.normal(size=(50, 50))
    tie_mask = rng.uniform(size=(50, 50)) < 0.25
    my[tie_mask] = mx[tie_mask]
    d = decision_map(mx, my)
    assert np.array_equal(d, mx >= my)
    assert np.all(d[tie_mask])


def test_self_fusion_returns_filtered_input_and_all_first():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    result = MomentFuser().fuse(img, img)
    from momentfuse.filters import preprocess
    assert np.array_equal(result.fused_f, preprocess(img))
    assert bool(result.decision.all())
    assert np.array_equal(result.fused_u8, quantize(result.fused_f))


def test_selection_property_filtered_mode():
    rng = np.random.default_rng(12)
    fuser = MomentFuser()
    for _ in range(5):
        a = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        result = fuser.fuse(a, b)
        from momentfuse.filters import preprocess
        fa, fb = preprocess(a), preprocess(b)
        matches = (result.fused_f == fa) | (result.fused_f == fb)
        assert bool(matches.all())


def test_selection_property_original_mode():
    rng = np.random.default_rng(13)
    fuser = MomentFuser(source="original")
    a = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    b = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    result = fuser.fuse(a, b)
    matches = (result.fused_f == widen(a)) | (result.fused_f == widen(b))
    assert bool(matches.all())
    assert result.fused_u8.max() <= 255


def test_swap_relation_differs_only_at_ties():
    rng = np.random.default_rng(21)
    fuser = MomentFuser()
    for _ in range(3):
        a = rng.integers(0, 256, size=(14, 14), dtype=np.uint8)
        b = rng.integers(0, 256, size=(14, 14), dtype=np.uint8)
        fwd = fuser.fuse(a, b)
        rev = fuser.fuse(b, a)
        ties = fwd.moments_a == fwd.moments_b
        assert np.array_equal(fwd.fused_f[~ties], rev.fused_f[~ties])


def test_decision_invariant_under_joint_positive_scaling():
    # 0.5x and 2x are exact float scalings, so the comparison chain is
    # bit-stable; checked pre-quantization at the float level.
    rng = np.random.default_rng(30)
    mask = high_boost_mask()

    def pipeline_decision(xf, yf):
        mx = local_moment_map(convolve3(xf, mask))
        my = local_moment_map(convolve3(yf, mask))
        return decision_map(mx, my)

    for _ in range(5):
        x = widen(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        y = widen(rng.integers(0, 256, size=(12, 12), dtype=np.uint8))
        base = pipeline_decision(x, y)
        assert np.array_equal(pipeline_decision(0.5 * x, 0.5 * y), base)
        assert np.array_equal(pipeline_decision(2.0 * x, 2.0 * y), base)


def test_moment_fuser_rejects_mismatched_pair():
    with pytest.raises(ShapeMismatchError):
        MomentFuser().fuse(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8))


def test_moment_fuser_rejects_bad_source():
    fuser = MomentFuser(source="both")
    with pytest.raises(ValueError):
        fuser.fuse(np.zeros((2, 2), np.uint8), np.zeros((2, 2), np.uint8))


def test_complementary_blur_pair_decisions_follow_sharp_side():
    rng = np.random.default_rng(61)
    base = random_texture(128, 128, rng)
    seam = 64
    pair = complementary_blur_pair(base, seam, 2.0)
    decision = MomentFuser().fuse(pair.a, pair.b).decision
    left = decision[:, :seam - 3]
    right = decision[:, seam + 4:]
    # a is blurred left of the seam, so the left half should pick b.
    assert np.mean(~left) >= 0.9
    assert np.mean(right) >= 0.9


def test_average_constants():
    a = np.full((4, 4), 100, dtype=np.uint8)
    b = np.full((4, 4), 200, dtype=np.uint8)
    result = AverageFuser().fuse(a, b)
    assert np.all(result.fused_f == 150.0)
    assert np.all(result.fused_u8 == 150)
    assert result.decision is None


def test_average_idempotent_and_rounding():
    img = np.array([[0, 255]], dtype=np.uint8)
    assert np.array_equal(AverageFuser().fuse(img, img).fused_u8, img)
    swapped = np.array([[255, 0]], dtype=np.uint8)
    result = AverageFuser().fuse(img, swapped)
    assert result.fused_f.tolist() == [[127.5, 127.5]]
    assert result.fused_u8.tolist() == [[128, 128]]


def test_average_symmetric():
    rng = np.random.default_rng(39)
    a = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    b = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    assert np.array_equal(AverageFuser().fuse(a, b).fused_f,
                          AverageFuser().fuse(b, a).fused_f)


def test_pca_identical_sources_gives_half_weights():
    rng = np.random.default_rng(44)
    img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    result = PcaFuser().fuse(img, img)
    assert result.weights == pytest.approx((0.5, 0.5))
    assert not result.degenerate
    assert np.array_equal(result.fused_u8, img)


def test_pca_constant_second_source_puts_all_weight_on_first():
    rng = np.random.default_rng(45)
    a = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    b = np.full((8, 8), 77, dtype=np.uint8)
    result = PcaFuser().fuse(a, b)
    assert result.weights == pytest.approx((1.0, 0.0), abs=1e-12)
    assert np.array_equal(result.fused_u8, a)


def test_pca_weights_match_closed_form_oracle():
    rng = np.random.default_rng(46)
    for _ in range(10):
        a = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        wa, wb, degenerate = pca_weights(a, b)
        oa, ob = closed_form_pca_weights(a, b)
        assert not degenerate
        assert wa == pytest.approx(oa, abs=1e-9)
        assert wb == pytest.approx(ob, abs=1e-9)


def test_pca_symmetric_up_to_sign_normalization():
    rng = np.random.default_rng(47)
    a = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    b = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    fwd = PcaFuser().fuse(a, b)
    rev = PcaFuser().fuse(b, a)
    assert fwd.weights[0] == pytest.approx(rev.weights[1], abs=1e-12)
    assert np.allclose(fwd.fused_f, rev.fused_f, atol=1e-9)


def test_pca_degenerate_constant_pair():
    a = np.full((5, 5), 100, dtype=np.uint8)
    b = np.full((5, 5), 200, dtype=np.uint8)
    result = PcaFuser().fuse(a, b)
    assert result.degenerate
    assert result.weights == (0.5, 0.5)
    assert np.all(result.fused_u8 == 150)


def test_pca_degenerate_anticorrelated_pair():
    a = np.array([[0, 200], [0, 200]], dtype=np.uint8)
    b = np.array([[200, 0], [200, 0]], dtype=np.uint8)
    wa, wb, degenerate = pca_weights(a, b)
    assert degenerate
    assert (wa, wb) == (0.5, 0.5)


def test_make_fuser_names_and_params():
    fuser = make_fuser("moment", p=2, q=0, window=5, source="original")
    assert isinstance(fuser, MomentFuser)
    params = fuser.get_params()
    assert params["p"] == 2 and params["q"] == 0 and params["window"] == 5
    assert isinstance(make_fuser("average", p=2), AverageFuser)  # extras ignored
    with pytest.raises(ValueError, match="unknown fusion method"):
        make_fuser("dwt")


def test_estimator_param_round_trip():
    fuser = MomentFuser()
    fuser.set_params(window=5, magnitude=False)
    assert fuser.get_params()["window"] == 5
    assert fuser.get_params()["magnitude"] is False
    with pytest.raises(ValueError):
        fuser.set_params(bogus=1)
    assert "window=5" in repr(fuser)


def staged_fuse(fuser, a, b):
    """The full-raster pipeline `MomentFuser.fuse` cuts into row strips."""
    fa = preprocess(a, fuser.center)
    fb = preprocess(b, fuser.center)
    ma = local_moment_map(fa, fuser.p, fuser.q, fuser.window, fuser.magnitude)
    mb = local_moment_map(fb, fuser.p, fuser.q, fuser.window, fuser.magnitude)
    select_a = decision_map(ma, mb)
    if fuser.source == "filtered":
        fused_f = np.where(select_a, fa, fb)
    else:
        fused_f = np.where(select_a, widen(a), widen(b))
    return quantize(fused_f), fused_f, select_a, ma, mb


def assert_same_outputs(result, expected):
    got = (result.fused_u8, result.fused_f, result.decision, result.moments_a, result.moments_b)
    for out, want in zip(got, expected):
        assert out.dtype == want.dtype and np.array_equal(out, want)


@pytest.mark.parametrize("shape", [(3, 4), (300, 200)])
@pytest.mark.parametrize("params, message", [
    ({"window": -5}, "window must be odd and >= 1, got -5"),
    ({"window": 0}, "window must be odd and >= 1, got 0"),
    ({"window": 2}, "window must be odd and >= 1, got 2"),
    ({"p": 7}, "moment orders must be in [0, 4], got p=7, q=1"),
    ({"source": "both"}, "source must be 'filtered' or 'original', got 'both'"),
])
def test_fuse_rejects_bad_params_before_tiling(shape, params, message):
    # A negative window used to give a negative halo, and with it an empty
    # strip whose zero-dimension error hid the real one.
    a = np.zeros(shape, np.uint8)
    with pytest.raises(ValueError) as info:
        MomentFuser(**params).fuse(a, a)
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(
    data=st.tuples(st.integers(1, 40), st.integers(1, 12)).flatmap(
        lambda shape: st.tuples(arrays(np.uint8, shape), arrays(np.uint8, shape))),
    strip_pixels=st.sampled_from([1, 7, 64]),
    window=st.sampled_from([1, 3, 5, 7]),
    orders=st.sampled_from([(0, 0), (1, 1), (2, 3)]),
    magnitude=st.booleans(),
    source=st.sampled_from(["filtered", "original"]),
)
def test_fuse_is_tiling_invariant(data, strip_pixels, window, orders, magnitude, source):
    a, b = data
    fuser = MomentFuser(p=orders[0], q=orders[1], window=window,
                        magnitude=magnitude, source=source)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_STRIP_PIXELS", strip_pixels)
        result = fuser.fuse(a, b)
    assert_same_outputs(result, staged_fuse(fuser, a, b))


@pytest.mark.parametrize("workers", [1, 8])
def test_fuse_matches_staged_on_any_worker_count(monkeypatch, workers):
    # Strips share the output arrays; with more threads than cores and a
    # short switch interval, a strip writing outside its rows would show.
    rng = np.random.default_rng(17)
    a, b = rng.integers(0, 256, size=(2, 97, 13), dtype=np.uint8)
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 50)
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))
    fuser = MomentFuser(window=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = fuser.fuse(a, b)
    finally:
        sys.setswitchinterval(interval)
    assert_same_outputs(result, staged_fuse(fuser, a, b))


@pytest.mark.parametrize("source", ["filtered", "original"])
def test_fuse_validates_once_at_its_boundary(monkeypatch, source):
    # The strips derive every float raster from the checked uint8 pair, so
    # they run the unchecked kernels on moment weights built once per call.
    float_checks = []
    for module in (fusion, filters, image):
        check = module.check_image_float
        monkeypatch.setattr(module, "check_image_float",
                            lambda *args, _check=check: float_checks.append(args) or _check(*args))
    builds = []
    build = fusion._moment_weights
    monkeypatch.setattr(fusion, "_moment_weights", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 64)  # 10 strips of 4 rows
    rng = np.random.default_rng(29)
    a, b = rng.integers(0, 256, size=(2, 40, 16), dtype=np.uint8)
    fuser = MomentFuser(window=5, source=source)
    result = fuser.fuse(a, b)
    assert float_checks == [] and builds == [(1, 1, 5)]
    assert_same_outputs(result, staged_fuse(fuser, a, b))


def test_worker_count_follows_cpu_affinity(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert fusion._worker_count(1) == 1
    assert fusion._worker_count(10**6) == cpus
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fusion._worker_count(10**6) == (os.cpu_count() or 1)


def fusion_digest(result):
    digest = hashlib.sha256()
    for arr in (result.fused_u8, result.fused_f, result.decision):
        digest.update(arr.tobytes())
    return digest.hexdigest()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fuse_leaves_no_threads_and_works_after_fork(monkeypatch):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 256)  # 60 strips of 8 rows
    rng = np.random.default_rng(23)
    a, b = rng.integers(0, 256, size=(2, 480, 32), dtype=np.uint8)
    threads = threading.active_count()
    parent = fusion_digest(MomentFuser().fuse(a, b))
    assert threading.active_count() == threads

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: fuse again, report the digest, exit without cleanup
        status = 1
        try:
            os.write(write_end, fusion_digest(MomentFuser().fuse(a, b)).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
    with os.fdopen(read_end, "rb") as pipe:
        child = pipe.read().decode()
    assert done, "fuse in a forked child did not return"
    assert os.waitstatus_to_exitcode(status) == 0
    assert child == parent
