"""Smoke tests of the benchmark itself: every workload at a tiny size, the
per-op checks catching a corrupted output, and the command-line contract.

Run with: python -m pytest benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import workloads
from conftest import BENCH, ROOT

TINY = {"size": 32, "pairs": 2}
NAMES = sorted(workloads.WORKLOADS)


def _run(tmp_path, name, trace, seed=5, seconds=0.05):
    return harness.run_workload(name, seed, seconds, trace, str(tmp_path / "work"), **TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_clean_at_tiny_size(tmp_path, name, trace):
    result = _run(tmp_path, name, trace)
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES


def _corrupt_fusion(result):
    result.fused_f[0, 0] += 1.0
    return result


def _corrupt_pair(outcomes):
    outcomes[1].result.decision[0, 0] ^= True
    return outcomes


def _corrupt_report(out):
    code, report = out
    return code, report.replace(b",moment,", b",moment ,", 1)


CORRUPTIONS = {"fuse_2048": _corrupt_fusion, "pair_1024": _corrupt_pair,
               "batch_256": _corrupt_report}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_as_failed_op(tmp_path, monkeypatch, name, trace):
    cls = workloads.WORKLOADS[name]
    op = cls.op
    monkeypatch.setattr(cls, "op", lambda self, i: CORRUPTIONS[name](op(self, i)))
    result = _run(tmp_path, name, trace)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["detail"]["fail_ratio"] == 1.0


def test_later_op_differing_from_verified_output_fails(tmp_path, monkeypatch):
    cls = workloads.WORKLOADS["fuse_2048"]
    op = cls.op
    monkeypatch.setattr(cls, "op", lambda self, i: (_corrupt_fusion(op(self, i)) if i >= 2
                                                    else op(self, i)))
    result = _run(tmp_path, "fuse_2048", False, seconds=0.3)
    assert 0 < result["failed"] < result["attempted"]
    assert any("differs from the verified output" in p for p in result["detail"]["problems"])


@pytest.mark.parametrize("name", NAMES)
def test_staged_fuse_mismatch_fails(tmp_path, monkeypatch, name):
    import spans
    staged = spans.staged_fuse
    # Changes fused_f after fused_u8 was taken from it, so only a check that
    # compares the staged fusion itself can see it.
    monkeypatch.setattr(spans, "staged_fuse", lambda *args: _corrupt_fusion(staged(*args)))
    result = _run(tmp_path, name, True)
    assert not result["correct"]
    if name == "batch_256":
        # Its report cannot show the change, so the per-pair staged check in
        # the first verification fails, and with it every op.
        assert result["failed"] == result["attempted"]
        assert any("staged fuse" in p for p in result["detail"]["problems"])
    else:
        # The traced ops return the staged result itself: they fail, the
        # untraced ops between them pass.
        assert result["failed"] == (result["attempted"] - 1) // 2 > 0
        assert any("verified output" in p for p in result["detail"]["problems"])


def test_pinned_digest_mismatch_fails(tmp_path, monkeypatch):
    cls = workloads.WORKLOADS["batch_256"]
    setup = cls.setup

    def pinned_setup(self, seed):
        setup(self, seed)
        self.pins = ["0" * 64]
    monkeypatch.setattr(cls, "setup", pinned_setup)
    result = _run(tmp_path, "batch_256", False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_pins_apply_at_default_seed_and_size_only(tmp_path):
    w = workloads.WORKLOADS["pair_1024"](str(tmp_path), **TINY)
    w.setup(workloads.DEFAULT_SEED)
    assert w.pins is None
    assert len(workloads.PINNED["pair_1024"]) == workloads.Pair1024.pairs
    assert len(workloads.PINNED["fuse_2048"]) == workloads.Fuse2048.pairs
    assert len(workloads.PINNED["batch_256"]) == 1


def test_op_times_follow_the_op_at_fixed_reference_speed(tmp_path, monkeypatch):
    cls = workloads.WORKLOADS["pair_1024"]
    monkeypatch.setattr(harness, "reference_ms", lambda raster, out: cls.reference_ms)
    plain = _run(tmp_path, "pair_1024", False)
    op = cls.op

    def slow_op(self, i):
        time.sleep(0.03)
        return op(self, i)
    monkeypatch.setattr(cls, "op", slow_op)
    slow = _run(tmp_path, "pair_1024", False)
    for result in (plain, slow):
        assert result["detail"]["speed_scale"] == 1.0
        assert result["metrics"]["op_ms_p50"]["value"] == result["detail"]["op_ms_p50_raw"]
    gained = slow["metrics"]["op_ms_p50"]["value"] - plain["metrics"]["op_ms_p50"]["value"]
    assert 25 < gained < 60


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(1, 41))) == (30, 75.0, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_instrumentation_restores_every_reference():
    import spans
    from momentfuse import batch, cli, fusion, metrics
    before = (fusion.MomentFuser.fuse, metrics.evaluate, batch.evaluate, cli.main,
              fusion.check_image_float, metrics.sobel_edges)
    with spans.instrumented(spans.Tracer()):
        assert batch.evaluate is not before[2]
    after = (fusion.MomentFuser.fuse, metrics.evaluate, batch.evaluate, cli.main,
             fusion.check_image_float, metrics.sobel_edges)
    assert after == before


@pytest.mark.parametrize("name", NAMES)
def test_peak_rss_leaves_out_the_checks(tmp_path, monkeypatch, name):
    cls = workloads.WORKLOADS[name]
    verify = cls.verify
    hog_mib = 96

    def hungry_verify(self, k, out):
        hog = np.ones(hog_mib * 2 ** 17)  # touched float64 pages, freed on return
        assert hog.sum() > 0
        return verify(self, k, out)

    plain = _run(tmp_path, name, False)["metrics"]["peak_rss_mib"]["value"]
    monkeypatch.setattr(cls, "verify", hungry_verify)
    hungry = _run(tmp_path, name, False)
    assert hungry["correct"], hungry["detail"]["problems"]
    assert abs(hungry["metrics"]["peak_rss_mib"]["value"] - plain) < hog_mib / 4


def test_peak_rss_counts_the_op(tmp_path, monkeypatch):
    cls = workloads.WORKLOADS["fuse_2048"]
    op = cls.op
    hog_mib = 96

    def hungry_op(self, i):
        hog = np.ones(hog_mib * 2 ** 17)
        assert hog.sum() > 0
        return op(self, i)

    plain = _run(tmp_path, "fuse_2048", False)["metrics"]["peak_rss_mib"]["value"]
    monkeypatch.setattr(cls, "op", hungry_op)
    hungry = _run(tmp_path, "fuse_2048", False)["metrics"]["peak_rss_mib"]["value"]
    assert hungry - plain > hog_mib * 3 / 4


def test_batch_report_differing_from_in_memory_run_fails(tmp_path, monkeypatch):
    from momentfuse import batch
    read_pgm = batch.read_pgm

    def off_by_one(path):
        pixels = read_pgm(path).copy()
        pixels[0, 0] ^= 1
        return pixels
    monkeypatch.setattr(batch, "read_pgm", off_by_one)
    result = _run(tmp_path, "batch_256", False)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("in-memory inputs" in p for p in result["detail"]["problems"])


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_command_line_prints_result_json_last(tmp_path, monkeypatch, capsys):
    import run
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(workloads.Batch256, "size", TINY["size"])
    monkeypatch.setattr(workloads.Batch256, "pairs", TINY["pairs"])
    run.main(["--workload", "batch_256", "--seed", "3", "--seconds", "0.05", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert [(k, m["unit"]) for k, m in line["metrics"].items()] == harness.END_TO_END
    assert lines[-2].startswith("detail ")


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _cli(tmp_path, "--workload", "fuse_2048", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
