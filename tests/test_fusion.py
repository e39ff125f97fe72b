"""Decision-map semantics, the three fusers, and their invariants."""

import hashlib
import math
import os
import shutil
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import momentfuse
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
from momentfuse.metrics import sobel_edges
from momentfuse.synthetic import complementary_blur_pair, gaussian_blur_float, random_texture
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


fuser_params = st.fixed_dictionaries({
    "window": st.sampled_from([1, 3, 5]),
    "p": st.integers(0, 2),
    "q": st.integers(0, 2),
    "magnitude": st.booleans(),
    "center": st.sampled_from([8.0, 9.0, 17.9, 40.0]),
})
u8_pairs = st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
    lambda shape: st.tuples(arrays(np.uint8, shape), arrays(np.uint8, shape)))


@settings(max_examples=100, deadline=None)
@given(pair=u8_pairs, params=fuser_params)
def test_self_fusion_of_original_source_returns_it_with_all_first(pair, params):
    img = pair[0]
    result = MomentFuser(source="original", **params).fuse(img, img)
    assert result.fused_u8.tobytes() == img.tobytes()
    assert bool(result.decision.all())


@settings(max_examples=100, deadline=None)
@given(pair=u8_pairs, params=fuser_params, source=st.sampled_from(["filtered", "original"]))
def test_swapping_sources_complements_decision_except_at_ties(pair, params, source):
    a, b = pair
    fuser = MomentFuser(source=source, **params)
    fwd, rev = fuser.fuse(a, b), fuser.fuse(b, a)
    assert fwd.moments_a.tobytes() == rev.moments_b.tobytes()
    ties = fwd.moments_a == fwd.moments_b
    # A tie goes to the first source in both orders.
    assert np.array_equal(rev.decision, ~fwd.decision | ties)


@settings(max_examples=100, deadline=None)
@given(pair=u8_pairs, order=st.integers(0, 2), window=st.sampled_from([1, 3, 5]),
       magnitude=st.booleans(), source=st.sampled_from(["filtered", "original"]),
       center=st.sampled_from([8.0, 9.0, 17.9, 40.0]))
def test_fusion_with_equal_orders_is_transpose_equivariant(pair, order, window, magnitude,
                                                          source, center):
    # With p = q the mask and the moment window are symmetric, so fusing the
    # transposed pair gives the transposed result, up to rounding: the
    # transposed sums add the same terms in another order. Each moment sums
    # at most window^2 + 9 rounded terms, all bounded by `bound`, so it is
    # within ~1e-14 * bound of the exact value. Decisions must agree where
    # the moments differ by more than the margin, 1e-9 * bound.
    a, b = pair
    fuser = MomentFuser(p=order, q=order, window=window, magnitude=magnitude,
                        source=source, center=center)
    fwd = fuser.fuse(a, b)
    rev = fuser.fuse(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))
    max_filtered = (abs(center) + 8.0) * 255.0 / 9.0
    bound = fusion._moment_weights(order, order, window).sum() * max_filtered
    margin = 1e-9 * bound
    assert np.all(np.abs(rev.moments_a.T - fwd.moments_a) <= margin)
    assert np.all(np.abs(rev.moments_b.T - fwd.moments_b) <= margin)
    clear = np.abs(fwd.moments_a - fwd.moments_b) > margin
    assert np.array_equal(rev.decision.T[clear], fwd.decision[clear])
    assert np.all(np.abs(rev.fused_f.T[clear] - fwd.fused_f[clear]) <= 1e-9 * max_filtered)


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


def exact_covariance(a, b):
    """Independent oracle: the population covariance of the flattened pair
    as exact rationals, by its two-pass definition."""
    u = [int(x) for x in a.ravel()]
    v = [int(x) for x in b.ravel()]
    n = len(u)
    mu, mv = Fraction(sum(u), n), Fraction(sum(v), n)
    du = [x - mu for x in u]
    dv = [x - mv for x in v]
    return [[sum(x * y for x, y in zip(p, q)) / n for q in (du, dv)] for p in (du, dv)]


@pytest.mark.parametrize("kind", ["random", "constant", "one_constant", "anticorrelated",
                                  "identical", "extreme"])
def test_covariance_is_the_correctly_rounded_exact_rational(kind):
    rng = np.random.default_rng(48)
    a, b = rng.integers(0, 256, size=(2, 13, 11), dtype=np.uint8)
    if kind == "constant":
        a, b = np.full_like(a, 100), np.full_like(b, 200)
    elif kind == "one_constant":
        b = np.full_like(b, 77)
    elif kind == "anticorrelated":
        b = 255 - a
    elif kind == "identical":
        b = a
    elif kind == "extreme":
        a = np.where(a > 127, 255, 0).astype(np.uint8)
        b = np.where(b > 200, 255, 0).astype(np.uint8)
    cov = fusion._covariance(a, b)
    expected = [[float(x) for x in row] for row in exact_covariance(a, b)]
    assert cov.tolist() == expected
    if kind == "constant":
        assert not cov.any()
    if kind == "anticorrelated":
        assert cov[0, 1] == -cov[0, 0] < 0


def test_pca_weights_reject_non_8_bit_sources():
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="integer array"):
        pca_weights(a.astype(np.float64), a)
    with pytest.raises(ShapeMismatchError):
        pca_weights(a, a[:3])


# Prints the PCA weights and a digest of PcaFuser's fused_f for three
# seed-0 256^2 pairs: large enough that a BLAS dot product would split its
# sum across threads.
_PCA_PROBE = textwrap.dedent("""
    import hashlib
    from momentfuse.fusion import PcaFuser, pca_weights
    from momentfuse.synthetic import synthesize_pairs
    for _, pair in synthesize_pairs(3, sigma=2.0, seed=0):
        fused_f = PcaFuser().fuse(pair.a, pair.b).fused_f
        print(pca_weights(pair.a, pair.b), hashlib.sha256(fused_f.tobytes()).hexdigest())
""")


def test_pca_bits_do_not_depend_on_blas_threads():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentfuse.__file__)))
    runs = [({"OPENBLAS_NUM_THREADS": "1"}, []), ({"OPENBLAS_NUM_THREADS": "2"}, [])]
    if shutil.which("taskset") and hasattr(os, "sched_getaffinity") and 0 in os.sched_getaffinity(0):
        runs.append(({}, ["taskset", "-c", "0"]))
    outputs = []
    for extra_env, prefix in runs:
        done = subprocess.run(prefix + [sys.executable, "-c", _PCA_PROBE],
                              env=dict(env, **extra_env), capture_output=True, text=True,
                              timeout=120, check=True)
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert all(out == outputs[0] for out in outputs), outputs


@pytest.mark.parametrize("strip_pixels", [7, 64, 1 << 16])
def test_blends_on_strips_equal_the_full_raster_expressions(monkeypatch, strip_pixels):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", strip_pixels)
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, 3))
    rng = np.random.default_rng(49)
    a, b = rng.integers(0, 256, size=(2, 37, 16), dtype=np.uint8)
    average = AverageFuser().fuse(a, b)
    pca = PcaFuser().fuse(a, b)
    wa, wb = pca.weights
    assert (wa, wb, pca.degenerate) == pca_weights(a, b)
    for result, expected in ((average, (widen(a) + widen(b)) / 2.0),
                             (pca, wa * widen(a) + wb * widen(b))):
        assert result.fused_f.dtype == np.float64 and result.fused_u8.dtype == np.uint8
        assert result.fused_f.tobytes() == expected.tobytes()
        assert np.array_equal(result.fused_u8, quantize(result.fused_f))


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
    # Bytes, not values: a -0.0 where the staged run has 0.0 would show.
    got = (result.fused_u8, result.fused_f, result.decision, result.moments_a, result.moments_b)
    for out, want in zip(got, expected):
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


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
    # 8.0 gives the mask a DC gain of 0, so flat rows filter to zeros and tie.
    center=st.sampled_from([8.0, 9.0, 17.9, 40.0]),
)
def test_fuse_is_tiling_invariant(data, strip_pixels, window, orders, magnitude, source, center):
    a, b = data
    fuser = MomentFuser(p=orders[0], q=orders[1], window=window,
                        magnitude=magnitude, source=source, center=center)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="raise"):
        # Raising on every floating-point flag, in every strip: the scratch
        # columns of the strips' buffers must hold finite sums too.
        mp.setattr(fusion, "_STRIP_PIXELS", strip_pixels)
        result = fuser.fuse(a, b)
    assert_same_outputs(result, staged_fuse(fuser, a, b))


@pytest.mark.parametrize("workers", [1, 8])
def test_fuse_matches_staged_on_any_worker_count(monkeypatch, workers):
    # Strips copy their rows into shared outputs; with more threads than
    # cores and a short switch interval, a copy outside its rows would show.
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


@pytest.mark.parametrize("workers", [1, 3])
def test_run_strips_gives_one_strip_its_own_arrays(monkeypatch, workers):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 64)
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))
    made = []

    def fn(top, bottom):
        assert (top, bottom) == (0, 8)
        made.append((np.ones((8, 8), bool), np.arange(64.0).reshape(8, 8)))
        return made[-1]

    outputs = fusion._run_strips(8, 8, fn, (bool, np.float64))
    assert len(made) == 1 and len(outputs) == 2
    assert all(out is block for out, block in zip(outputs, made[0]))


@pytest.mark.parametrize("workers", [1, 3])
def test_run_strips_stitches_every_row_from_one_strip(monkeypatch, workers):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 40)  # 8 strips of 5 rows, the last of 2
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))
    height, width = 37, 8
    strips = []

    def fn(top, bottom):
        strips.append((top, bottom))
        rows = np.arange(top, bottom)[:, None].repeat(width, axis=1)
        return rows % 2 == 0, np.full(rows.shape, top, np.uint8), rows * 1.5

    threads = threading.active_count()
    even, tops, scaled = fusion._run_strips(height, width, fn, (bool, np.uint8, np.float64))
    assert threading.active_count() == threads
    assert sorted(strips) == [(top, min(top + 5, height)) for top in range(0, height, 5)]
    rows = np.arange(height)[:, None].repeat(width, axis=1)
    for out, dtype in zip((even, tops, scaled), (bool, np.uint8, np.float64)):
        assert out.shape == (height, width) and out.dtype == dtype
        assert out.flags.c_contiguous
    assert np.array_equal(even, rows % 2 == 0)
    assert np.array_equal(tops, rows - rows % 5)  # row r from the strip at top 5 * (r // 5)
    assert np.array_equal(scaled, rows * 1.5)


@pytest.mark.parametrize("workers", [1, 3])
def test_run_strips_runs_every_strip_under_the_callers_errstate(monkeypatch, workers):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 40)  # 8 strips
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))

    def fn(top, bottom):
        return (np.full((bottom - top, 8), np.geterr()["under"] == "raise"),)

    with np.errstate(under="raise"):  # numpy's default ignores underflow
        raised, = fusion._run_strips(37, 8, fn, (bool,))
    assert raised.all()


@pytest.mark.parametrize("workers", [1, 3])
def test_run_strips_propagates_a_strip_exception(monkeypatch, workers):
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 40)
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))

    def fn(top, bottom):
        if top == 15:
            raise RuntimeError("strip at row 15 failed")
        return (np.zeros((bottom - top, 8)),)

    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="strip at row 15 failed"):
        fusion._run_strips(37, 8, fn, (np.float64,))
    assert threading.active_count() == threads


def test_worker_count_follows_cpu_affinity(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert fusion._worker_count(1) == 1
    assert fusion._worker_count(10**6) == cpus
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fusion._worker_count(10**6) == (os.cpu_count() or 1)


@pytest.mark.parametrize("strip_pixels", [1 << 16, 64])  # one strip; 17 strips of 2 rows
@pytest.mark.parametrize("window", [1, 3, 5])
def test_every_output_array_is_c_contiguous(monkeypatch, strip_pixels, window):
    # The fuse strips compute on buffers wider than the raster and return
    # views of their first `width` columns; no such view may leak out.
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", strip_pixels)
    rng = np.random.default_rng(31)
    a, b = rng.integers(0, 256, size=(2, 33, 29), dtype=np.uint8)
    outputs = {}
    fusers = [MomentFuser(window=window, source=source, magnitude=magnitude)
              for source in ("filtered", "original") for magnitude in (True, False)]
    for fuser in fusers + [AverageFuser(), PcaFuser()]:
        result = fuser.fuse(a, b)
        for name, value in vars(result).items():
            if isinstance(value, np.ndarray):
                outputs[f"{fuser!r}.{name}"] = value
    edges = sobel_edges(a)
    filtered = preprocess(a)
    outputs.update({
        "strength": edges.strength,
        "orientation": edges.orientation,
        "preprocess": filtered,
        "convolve3": convolve3(widen(a), high_boost_mask()),
        "local_moment_map": local_moment_map(filtered, window=window),
        "gaussian_blur_float": gaussian_blur_float(widen(a), 1.3),
    })
    assert len(outputs) == 4 * 5 + 2 * 2 + 6
    for name, out in outputs.items():
        assert out.shape == a.shape and out.flags.c_contiguous, name


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
