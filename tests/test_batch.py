"""Batch harness: discovery, manifests, aggregation, and report emission."""

import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from momentfuse import batch, fusion, metrics
from momentfuse.fusion import PcaFuser
from momentfuse.batch import (
    EmptyBatchError,
    PairSpec,
    discover_pairs,
    emit_report,
    read_manifest,
    run_batch,
    run_pair,
)
from momentfuse.filters import preprocess
from momentfuse.image import quantize
from momentfuse.metrics import QabfConstants, evaluate, mutual_information
from momentfuse.pgm import read_pgm, write_pgm
from momentfuse.synthetic import random_texture, synthesize_pairs


def write_pair_dir(tmp_path, n=2, size=24, seed=3):
    rng = np.random.default_rng(seed)
    for i in range(n):
        img_a = random_texture(size, size, rng)
        img_b = random_texture(size, size, rng)
        write_pgm(tmp_path / f"{i:03d}_a.pgm", img_a)
        write_pgm(tmp_path / f"{i:03d}_b.pgm", img_b)


def test_discover_pairs_and_orphans(tmp_path):
    write_pair_dir(tmp_path, n=2)
    write_pgm(tmp_path / "stray_a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "notes.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "readme.txt").write_text("not a raster")
    pairs, orphans = discover_pairs(tmp_path)
    assert [p.pair_id for p in pairs] == ["000", "001"]
    assert orphans == ["notes.pgm", "stray_a.pgm"]


def test_discover_pairs_gives_no_pair_an_empty_id(tmp_path):
    # `_a.pgm` and `_b.pgm` used to form a pair whose report rows began
    # with an empty cell.
    write_pair_dir(tmp_path, n=1)
    for name in ("_a.pgm", "_b.pgm"):
        write_pgm(tmp_path / name, np.zeros((4, 4), dtype=np.uint8))
    pairs, orphans = discover_pairs(tmp_path)
    assert [p.pair_id for p in pairs] == ["000"]
    assert orphans == ["_a.pgm", "_b.pgm"]


def test_manifest_parsing(tmp_path):
    write_pair_dir(tmp_path, n=1)
    manifest = tmp_path / "pairs.txt"
    manifest.write_text(
        "# comment line\n"
        "\n"
        "first 000_a.pgm 000_b.pgm  # inline comment\n"
    )
    pairs = read_manifest(manifest)
    assert len(pairs) == 1
    assert pairs[0].pair_id == "first"
    assert pairs[0].path_a.endswith("000_a.pgm")
    bad = tmp_path / "bad.txt"
    bad.write_text("id path_a_only\n")
    with pytest.raises(ValueError, match="expected"):
        read_manifest(bad)


def test_manifest_rejects_a_repeated_pair_id(tmp_path):
    # Each method's two rows for one id could not be told apart in a report.
    manifest = tmp_path / "pairs.txt"
    manifest.write_text("x 000_a.pgm 000_b.pgm\n"
                        "# comment line\n"
                        "y 001_a.pgm 001_b.pgm\n"
                        "x 001_a.pgm 001_b.pgm\n")
    with pytest.raises(ValueError) as info:
        read_manifest(manifest)
    assert str(info.value) == f"{manifest}:4: pair id 'x' already appears on line 1"


def test_run_pair_identical_inputs_moment_identity():
    rng = np.random.default_rng(8)
    img = random_texture(20, 20, rng)
    outcomes = run_pair(img, img, methods=("moment",))
    assert len(outcomes) == 1
    outcome = outcomes[0]
    fused = quantize(preprocess(img))
    assert np.array_equal(outcome.result.fused_u8, fused)
    expected_mim = 2.0 * mutual_information(img, fused)
    assert outcome.record.mim_bits == pytest.approx(expected_mim, abs=1e-9)


def test_run_pair_average_constants():
    a = np.full((6, 6), 100, dtype=np.uint8)
    b = np.full((6, 6), 200, dtype=np.uint8)
    outcome = run_pair(a, b, methods=("average",))[0]
    assert np.all(outcome.result.fused_u8 == 150)
    assert outcome.record.sd == 0.0


def test_run_pair_unknown_method():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="unknown fusion method"):
        run_pair(img, img, methods=("wavelet",))


@pytest.mark.parametrize("methods", [("moment",), ("average", "pca")])
def test_run_pair_rejects_a_parameter_no_fuser_declares(methods):
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="^unknown fuser parameter 'windw'"):
        run_pair(img, img, methods, windw=7, centre=9.0)


def test_bare_string_methods_is_rejected_before_any_pair_is_read(tmp_path, monkeypatch):
    # A string is a collection of its letters, which read as method names.
    message = "methods must be a collection of method names, got 'moment'"
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match=message):
        run_pair(img, img, methods="moment")
    write_pair_dir(tmp_path, n=1)
    pairs, _ = discover_pairs(tmp_path)
    reads = []
    monkeypatch.setattr(batch, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
    with pytest.raises(ValueError, match=message):
        run_batch(pairs, "moment")
    assert reads == []


@pytest.mark.parametrize("methods", [(), [], set()])
def test_run_pair_rejects_an_empty_methods_collection(methods):
    img = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError, match="^methods must name at least one fusion method$"):
        run_pair(img, img, methods=methods)


def test_run_batch_rejects_an_empty_methods_collection_before_any_pair_is_read(
        tmp_path, monkeypatch):
    # It would decode every pair, fuse none and call the set empty.
    write_pair_dir(tmp_path, n=1, size=16)
    pairs, _ = discover_pairs(tmp_path)
    reads = []
    monkeypatch.setattr(batch, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
    with pytest.raises(ValueError, match="^methods must name at least one fusion method$"):
        run_batch(pairs, methods=())
    assert reads == []


def _source_pair(case):
    _, pair = synthesize_pairs(1, sigma=2.0, seed=5, height=24, width=29)[0]
    if case == "same object":
        return pair.a, pair.a
    # Validation copies these into new uint8 arrays on every call.
    if case == "int64":
        return pair.a.astype(np.int64), pair.b.astype(np.int64)
    if case == "fortran":
        return np.asfortranarray(pair.a), np.asfortranarray(pair.b)
    return pair.a, pair.b


_SOURCE_CASES = ["default", "same object", "int64", "fortran"]
_CASES = [
    ("default-None", "default", None),
    ("default-constants1", "default", QabfConstants(weight_exponent=2.0)),
    ("same object-None", "same object", None),
    ("int64-None", "int64", None),
    ("fortran-None", "fortran", None),
]


@pytest.mark.parametrize("case, constants, keep_results", [
    pytest.param(case, constants, keep, id=name if keep else f"{name}-records")
    for keep in (True, False) for name, case, constants in _CASES
])
def test_run_pair_records_equal_standalone_evaluate(case, constants, keep_results):
    a, b = _source_pair(case)
    outcomes = run_pair(a, b, constants=constants, keep_results=keep_results)
    assert [o.method for o in outcomes] == ["average", "moment", "pca"]
    # Without results the records must be those of the kept fused rasters.
    fused = outcomes if keep_results else run_pair(a, b)
    for outcome, kept in zip(outcomes, fused):
        assert (outcome.result is not None) == keep_results
        standalone = evaluate(a, b, kept.result.fused_u8, constants)
        assert repr(outcome.record) == repr(standalone)
    assert metrics._SOURCE_TERMS.get() is None


@pytest.fixture
def sobel_calls(monkeypatch):
    """Shapes of the rasters passed to `metrics.sobel_edges`, in call order."""
    calls = []
    sobel_edges = metrics.sobel_edges

    def counting(img):
        calls.append(img.shape)
        return sobel_edges(img)

    monkeypatch.setattr(metrics, "sobel_edges", counting)
    return calls


def test_source_term_scope_unset_after_failure_mid_loop(sobel_calls, monkeypatch):
    a, b = _source_pair("default")
    qabf = metrics.qabf
    scored = []

    def failing_second(*args):
        scored.append(len(scored))
        if len(scored) == 2:
            raise RuntimeError("second method's score failed")
        return qabf(*args)

    monkeypatch.setattr(metrics, "qabf", failing_second)
    with pytest.raises(RuntimeError, match="second method"):
        run_pair(a, b)
    # Every method was fused first; "average" was then scored (both sources;
    # the fused raster's edges are computed per strip, not through
    # `sobel_edges`) before scoring "moment" failed.
    assert len(scored) == 2
    assert len(sobel_calls) == 2
    assert metrics._SOURCE_TERMS.get() is None


@pytest.mark.parametrize("case", _SOURCE_CASES)
def test_run_pair_computes_source_sobel_maps_once(sobel_calls, case):
    a, b = _source_pair(case)
    outcomes = run_pair(a, b)
    # Two sources once for all methods (was twice per method), whatever the
    # sources' dtype or layout; the fused rasters' edges are computed per
    # strip, not through `sobel_edges`.
    assert len(outcomes) == 3
    assert len(sobel_calls) == 2
    sobel_calls.clear()
    evaluate(a, b, outcomes[0].result.fused_u8)
    assert len(sobel_calls) == 2


def test_source_terms_are_shared_only_for_the_scope_pair_itself(sobel_calls):
    a, b = _source_pair("default")
    with metrics._shared_source_terms(a, b):
        for _ in range(2):
            metrics.qabf(a, b, a)
        assert len(sobel_calls) == 2
        # Equal values in another object, or the pair swapped, are not the pair.
        metrics.qabf(a, b.copy(), a)
        metrics.qabf(b, a, a)
        assert len(sobel_calls) == 6
    assert metrics._SOURCE_TERMS.get() is None


def test_run_pair_calls_batch_evaluate_once_per_method_in_the_pair_scope(monkeypatch):
    # The traced benchmark swaps `batch.evaluate`, so `run_pair` must reach
    # `evaluate` through that name, within the scope of its checked pair.
    a, b = _source_pair("int64")
    calls = []

    def recording(a, b, f, constants=None):
        scope = metrics._SOURCE_TERMS.get()
        calls.append(scope is not None and scope[0] is a and scope[1] is b)
        return evaluate(a, b, f, constants)

    monkeypatch.setattr(batch, "evaluate", recording)
    outcomes = run_pair(a, b)
    assert calls == [True, True, True]
    for outcome in outcomes:
        assert repr(outcome.record) == repr(evaluate(a, b, outcome.result.fused_u8))
    assert metrics._SOURCE_TERMS.get() is None


def test_run_batch_skips_bad_pairs(tmp_path):
    write_pair_dir(tmp_path, n=2)
    (tmp_path / "bad_a.pgm").write_bytes(b"P6 broken")
    write_pgm(tmp_path / "bad_b.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "odd_a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "odd_b.pgm", np.zeros((5, 4), dtype=np.uint8))
    pairs, orphans = discover_pairs(tmp_path)
    assert orphans == []
    report = run_batch(pairs, methods=("average", "moment"))
    assert sorted({row.pair_id for row in report.rows}) == ["000", "001"]
    assert sorted(pid for pid, _ in report.skipped) == ["bad", "odd"]
    reasons = dict(report.skipped)
    assert "magic" in reasons["bad"]
    assert "identical dimensions" in reasons["odd"]


def test_run_batch_empty_and_all_failing(tmp_path):
    with pytest.raises(EmptyBatchError) as info:
        run_batch([])
    assert info.value.skipped == []
    (tmp_path / "x_a.pgm").write_bytes(b"junk")
    (tmp_path / "x_b.pgm").write_bytes(b"junk")
    write_pgm(tmp_path / "y_a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "y_b.pgm", np.zeros((5, 4), dtype=np.uint8))
    pairs, _ = discover_pairs(tmp_path)
    with pytest.raises(EmptyBatchError) as info:
        run_batch(pairs)
    # The error keeps the reasons, as a report's skipped list would.
    assert [pair_id for pair_id, _ in info.value.skipped] == ["x", "y"]
    reasons = dict(info.value.skipped)
    assert "magic" in reasons["x"]
    assert "identical dimensions" in reasons["y"]


def test_run_batch_missing_file_is_skipped(tmp_path):
    write_pair_dir(tmp_path, n=1)
    pairs = [
        PairSpec("000", str(tmp_path / "000_a.pgm"), str(tmp_path / "000_b.pgm")),
        PairSpec("gone", str(tmp_path / "gone_a.pgm"), str(tmp_path / "gone_b.pgm")),
    ]
    report = run_batch(pairs, methods=("average",))
    assert [row.pair_id for row in report.rows] == ["000"]
    assert report.skipped[0][0] == "gone"


@pytest.mark.parametrize("methods, params, message", [
    (("moment",), {"window": 4}, "window must be odd and >= 1, got 4"),
    (("average",), {"window": 4}, None),  # a parameter no requested fuser takes
    (("moment",), {"p": 9}, "moment orders must be in"),
    (("moment",), {"source": "raw"}, "source must be 'filtered' or 'original'"),
    (("moment",), {"center": float("nan")}, "must be finite"),
    (("average", "dwt"), {}, "unknown fusion method 'dwt'"),
    (("moment",), {"window": 3.0}, "window must be an integer"),
    (("moment",), {"magnitude": "no"}, "magnitude must be a bool, got 'no'"),
    (("moment",), {"magnitude": None}, "magnitude must be a bool, got None"),
    (("moment",), {"q": True}, "q must be an integer, got True"),
    (("moment",), {"window": 99}, "window must be at most 97, got 99"),
    (("moment",), {"center": -1000002.0},
     re.escape("center must be in [-1000000.0, 1000000.0], got -1000002.0")),
    (("moment",), {"windw": 7}, "^unknown fuser parameter 'windw'"),
    (("average", "pca"), {"centre": 9.0}, "^unknown fuser parameter 'centre'"),
    (("moment",), {"center": "17.9"}, "^center must be a real number, got '17.9'$"),
    (("moment",), {"center": True}, "^center must be a real number, got True$"),
    (("moment",), {"center": np.float32(17.0)}, None),
    (("moment",), {"center": np.int64(17)}, None),
])
def test_run_batch_checks_methods_and_parameters_before_reading(tmp_path, monkeypatch,
                                                                methods, params, message):
    # A bad parameter fails every pair alike, so it must surface as the
    # library's ValueError, not as a batch of skips and an EmptyBatchError.
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    reads = []
    monkeypatch.setattr(batch, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
    if message is None:
        assert len(run_batch(pairs, methods, **params).rows) == 2
        return
    with pytest.raises(ValueError, match=message):
        run_batch(pairs, methods, **params)
    assert reads == []



@pytest.mark.parametrize("constants", ["x", {"weight_exponent": 2.0}], ids=["str", "dict"])
def test_run_batch_rejects_constants_that_are_not_qabf_constants_before_reading(
        tmp_path, monkeypatch, constants):
    # They fail every pair alike: each pair used to be fused by every method,
    # then skipped with an AttributeError, and the batch ended in EmptyBatchError.
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    reads = []
    monkeypatch.setattr(batch, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
    message = f"^constants must be a QabfConstants or None, got {type(constants).__name__}$"
    with pytest.raises(ValueError, match=message):
        run_batch(pairs, constants=constants)
    assert reads == []

def fail_pca_on(monkeypatch, bad_a, exc):
    """Make `PcaFuser.fuse` raise `exc` whenever its first source is `bad_a`."""
    fuse = PcaFuser.fuse

    def failing(self, a, b):
        if np.array_equal(a, bad_a):
            raise exc
        return fuse(self, a, b)

    monkeypatch.setattr(PcaFuser, "fuse", failing)


def test_run_batch_skips_pair_whose_fuser_raises(tmp_path, monkeypatch):
    write_pair_dir(tmp_path, n=3)
    pairs, _ = discover_pairs(tmp_path)
    expected = run_batch([pairs[0], pairs[2]])
    fail_pca_on(monkeypatch, read_pgm(pairs[1].path_a), MemoryError("injected"))
    report = run_batch(pairs)
    # The failing pair leaves no row, not even for the methods that ran
    # before its pca fuse; the other pairs' rows are those of a clean run.
    assert report.skipped == [("001", "MemoryError: injected")]
    assert repr(report.rows) == repr(expected.rows)
    assert report.aggregates == expected.aggregates
    assert metrics._SOURCE_TERMS.get() is None


def test_run_batch_lets_keyboard_interrupt_through(tmp_path, monkeypatch):
    write_pair_dir(tmp_path, n=3)
    pairs, _ = discover_pairs(tmp_path)
    fail_pca_on(monkeypatch, read_pgm(pairs[1].path_a), KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run_batch(pairs)


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(fusion, "_worker_count", lambda tasks: min(tasks, workers))


def write_mixed_dir(tmp_path):
    """Four good pairs (000 to 003) with an undecodable pair and a shape
    mismatch among them."""
    write_pair_dir(tmp_path, n=4)
    (tmp_path / "001x_a.pgm").write_bytes(b"P6 broken")
    write_pgm(tmp_path / "001x_b.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "002x_a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "002x_b.pgm", np.zeros((5, 4), dtype=np.uint8))
    return discover_pairs(tmp_path)[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_calls_run_pair_once_per_decodable_pair(tmp_path, monkeypatch, workers):
    # The benchmark spans `batch.run_pair` by swapping the module attribute,
    # so every pair must go through that name, pooled and inline.
    use_workers(monkeypatch, workers)
    pairs = write_mixed_dir(tmp_path)
    calls = []
    run_pair = batch.run_pair

    def counting(a, b, *args, **kwargs):
        calls.append(a.tobytes())
        return run_pair(a, b, *args, **kwargs)

    monkeypatch.setattr(batch, "run_pair", counting)
    report = run_batch(pairs)
    assert len(calls) == 4 == len({row.pair_id for row in report.rows})
    decoded = [read_pgm(spec.path_a).tobytes() for spec in pairs if "x" not in spec.pair_id]
    assert sorted(calls) == sorted(decoded)


def test_run_batch_reports_are_the_same_bytes_on_any_worker_count(tmp_path, monkeypatch):
    pairs = write_mixed_dir(tmp_path)
    failing = next(spec for spec in pairs if spec.pair_id == "002")
    fail_pca_on(monkeypatch, read_pgm(failing.path_a), MemoryError("injected"))
    emitted = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside each pair
    try:
        for workers in (1, 2, 4):  # 4 pair workers contend for fewer CPUs on small hosts
            use_workers(monkeypatch, workers)
            threads = threading.active_count()
            report = run_batch(pairs)
            assert threading.active_count() == threads
            emitted.append((emit_report(report, "csv"), emit_report(report, "json"),
                            report.skipped))
    finally:
        sys.setswitchinterval(interval)
    assert emitted[0] == emitted[1] == emitted[2]
    assert [pid for pid, _ in emitted[0][2]] == ["001x", "002", "002x"]
    assert metrics._SOURCE_TERMS.get() is None


def test_a_batch_of_multi_strip_pairs_runs_its_strips_on_at_most_one_thread_per_worker(
        tmp_path, monkeypatch):
    # Strips of 64 pixels split each 24x24 pair into 12 strips per pooled
    # stage. The strips run on their pair's thread, so no more threads run
    # strips, or exist, than the batch pool has workers.
    monkeypatch.setattr(fusion, "_STRIP_PIXELS", 64)
    pairs = write_mixed_dir(tmp_path)
    strips = []
    pooled = fusion._pooled

    def recording(fn, items):
        def strip(item):
            strips.append((threading.get_ident(), threading.active_count()))
            return fn(item)
        return pooled(strip, items)

    monkeypatch.setattr(fusion, "_pooled", recording)  # `_run_strips`' pool, not the batch's
    emitted = []
    for workers in (1, 2, 4):
        use_workers(monkeypatch, workers)
        strips.clear()
        threads = threading.active_count()
        report = run_batch(pairs)
        assert threading.active_count() == threads
        assert len(strips) > 4 * 12  # every good pair ran many strips
        assert len({ident for ident, _ in strips}) <= workers
        assert max(active for _, active in strips) <= threads + workers - 1
        emitted.append((emit_report(report, "csv"), emit_report(report, "json"),
                        report.skipped))
    assert emitted[0] == emitted[1] == emitted[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_keyboard_interrupt_stops_the_batch_within_one_pair_per_worker(tmp_path, monkeypatch,
                                                                       workers):
    # The pairs queued behind a failing one must not run before the
    # interrupt propagates. The other pairs take longer than the failing
    # one, so they are still running when it raises.
    use_workers(monkeypatch, workers)
    write_pair_dir(tmp_path, n=6)
    pairs, _ = discover_pairs(tmp_path)
    bad_a = read_pgm(pairs[1].path_a)
    fail_pca_on(monkeypatch, bad_a, KeyboardInterrupt())
    calls = []
    run_pair = batch.run_pair

    def slow_unless_failing(a, b, *args, **kwargs):
        calls.append(a)
        if not np.array_equal(a, bad_a):
            time.sleep(0.05)
        return run_pair(a, b, *args, **kwargs)

    monkeypatch.setattr(batch, "run_pair", slow_unless_failing)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_batch(pairs)
    assert threading.active_count() == threads
    assert 2 <= len(calls) <= 1 + workers
    assert metrics._SOURCE_TERMS.get() is None


def test_aggregates_equal_recomputed_means(tmp_path):
    generated = synthesize_pairs(5, 1.5, seed=21, height=32, width=32)
    for pair_id, pair in generated:
        write_pgm(tmp_path / f"{pair_id}_a.pgm", pair.a)
        write_pgm(tmp_path / f"{pair_id}_b.pgm", pair.b)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("average", "moment", "pca"))
    assert len(report.rows) == 15
    for method, agg in report.aggregates.items():
        group = [row.record for row in report.rows if row.method == method]
        assert agg["pairs"] == 5
        assert agg["mim"] == pytest.approx(np.mean([r.mim_bits for r in group]), abs=1e-12)
        assert agg["sd"] == pytest.approx(np.mean([r.sd for r in group]), abs=1e-12)
        assert agg["entropy"] == pytest.approx(np.mean([r.entropy_bits for r in group]), abs=1e-12)
        assert agg["qabf"] == pytest.approx(np.mean([r.qabf for r in group]), abs=1e-12)


def test_rows_sorted_by_pair_then_method(tmp_path):
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("pca", "average", "moment"))
    keys = [(row.pair_id, row.method) for row in report.rows]
    assert keys == sorted(keys)


def test_csv_schema_minimal(tmp_path):
    write_pair_dir(tmp_path, n=1)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("moment",))
    lines = emit_report(report, "csv").decode().splitlines()
    assert lines[0] == "pair_id,method,mim,sd,entropy,qabf,degenerate"
    assert len(lines) == 3  # header + one data row + one aggregate row
    assert lines[1].startswith("000,moment,")
    assert lines[2].startswith("(mean),moment,")


def test_json_round_trip_reproduces_numbers(tmp_path):
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("average", "moment"))
    payload = json.loads(emit_report(report, "json"))
    assert len(payload["rows"]) == len(report.rows)
    for row, emitted in zip(report.rows, payload["rows"]):
        assert emitted["pair_id"] == row.pair_id
        assert emitted["method"] == row.method
        assert emitted["mim"] == row.record.mim_bits
        assert emitted["sd"] == row.record.sd
        assert emitted["entropy"] == row.record.entropy_bits
        assert emitted["qabf"] == row.record.qabf
        assert emitted["degenerate"] == row.record.degenerate_qabf
    assert set(payload["aggregates"]) == {"average", "moment"}
    for agg in payload["aggregates"].values():
        assert set(agg) == {"mim", "sd", "entropy", "qabf", "pairs", "degenerate"}


def test_csv_and_json_carry_identical_numbers(tmp_path):
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("average", "moment"))
    payload = json.loads(emit_report(report, "json"))
    csv_lines = emit_report(report, "csv").decode().splitlines()[1:]
    data_lines = [line for line in csv_lines if not line.startswith("(mean)")]
    for line, emitted in zip(data_lines, payload["rows"]):
        _, _, mim_s, sd_s, entropy_s, qabf_s, degenerate_s = line.split(",")
        assert float(mim_s) == emitted["mim"]
        assert float(sd_s) == emitted["sd"]
        assert float(entropy_s) == emitted["entropy"]
        assert float(qabf_s) == emitted["qabf"]
        assert (degenerate_s == "true") == emitted["degenerate"]


def test_constant_pair_reports_zero_entropy_as_0_0(tmp_path):
    # The entropy of a one-level raster is -(1 * log2(1)) = -0.0 before the
    # sign is dropped; its rows must print 0.0, as the (mean) rows do.
    img = np.full((6, 5), 77, dtype=np.uint8)
    write_pgm(tmp_path / "c_a.pgm", img)
    write_pgm(tmp_path / "c_b.pgm", img)
    report = run_batch(discover_pairs(tmp_path)[0])
    assert emit_report(report, "csv") == (
        b"pair_id,method,mim,sd,entropy,qabf,degenerate\n"
        b"c,average,0.0,0.0,0.0,0.0,true\n"
        b"c,moment,0.0,0.0,0.0,0.0,true\n"
        b"c,pca,0.0,0.0,0.0,0.0,true\n"
        b"(mean),average,0.0,0.0,0.0,0.0,1\n"
        b"(mean),moment,0.0,0.0,0.0,0.0,1\n"
        b"(mean),pca,0.0,0.0,0.0,0.0,1\n")
    assert b"-0.0" not in emit_report(report, "json")


def test_emissions_are_deterministic(tmp_path):
    write_pair_dir(tmp_path, n=2)
    pairs, _ = discover_pairs(tmp_path)
    first = emit_report(run_batch(pairs), "csv")
    second = emit_report(run_batch(pairs), "csv")
    assert first == second
    assert emit_report(run_batch(pairs), "json") == emit_report(run_batch(pairs), "json")


def test_emit_report_rejects_unknown_format(tmp_path):
    write_pair_dir(tmp_path, n=1)
    pairs, _ = discover_pairs(tmp_path)
    report = run_batch(pairs, methods=("average",))
    with pytest.raises(ValueError):
        emit_report(report, "xml")
