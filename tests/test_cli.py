"""End-to-end CLI tests: subcommands, exit codes, and config files."""

import csv
import ctypes
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import momentfuse
from momentfuse import cli
from momentfuse.cli import main
from momentfuse.filters import preprocess
from momentfuse.fusion import MomentFuser
from momentfuse.image import quantize
from momentfuse.pgm import read_pgm, write_pgm
from momentfuse.synthetic import random_texture


@pytest.fixture
def pair_files(tmp_path):
    rng = np.random.default_rng(17)
    a = random_texture(24, 24, rng)
    b = random_texture(24, 24, rng)
    path_a = tmp_path / "a.pgm"
    path_b = tmp_path / "b.pgm"
    write_pgm(path_a, a)
    write_pgm(path_b, b)
    return path_a, path_b, a, b


def test_fuse_moment_roundtrip(pair_files, tmp_path, capsys):
    path_a, path_b, a, b = pair_files
    out = tmp_path / "fused.pgm"
    decision = tmp_path / "decision.pgm"
    code = main(["fuse", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--out", str(out), "--dump-decision", str(decision)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    expected = MomentFuser().fuse(a, b)
    assert np.array_equal(read_pgm(out), expected.fused_u8)
    dumped = read_pgm(decision)
    assert set(np.unique(dumped)) <= {0, 255}
    assert np.array_equal(dumped == 255, expected.decision)


def test_fuse_with_parameters(pair_files, tmp_path):
    path_a, path_b, a, b = pair_files
    out = tmp_path / "fused.pgm"
    code = main(["fuse", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--out", str(out), "--method", "moment", "--source", "original",
                 "--p", "0", "--q", "0", "--window", "5"])
    assert code == 0
    expected = MomentFuser(p=0, q=0, window=5, source="original").fuse(a, b)
    assert np.array_equal(read_pgm(out), expected.fused_u8)


def test_fuse_average_and_pca(pair_files, tmp_path):
    path_a, path_b, _, _ = pair_files
    for method in ("average", "pca"):
        out = tmp_path / f"{method}.pgm"
        assert main(["fuse", "--in-a", str(path_a), "--in-b", str(path_b),
                     "--out", str(out), "--method", method]) == 0
        assert out.exists()


def test_fuse_dump_decision_requires_selection_method(pair_files, tmp_path):
    path_a, path_b, _, _ = pair_files
    code = main(["fuse", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--out", str(tmp_path / "f.pgm"), "--method", "average",
                 "--dump-decision", str(tmp_path / "d.pgm")])
    assert code == 1
    assert not (tmp_path / "f.pgm").exists()


def test_fuse_missing_input_is_data_error(tmp_path):
    code = main(["fuse", "--in-a", str(tmp_path / "nope.pgm"),
                 "--in-b", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "f.pgm")])
    assert code == 2


def test_fuse_size_mismatch_is_data_error(tmp_path):
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "b.pgm", np.zeros((5, 4), dtype=np.uint8))
    code = main(["fuse", "--in-a", str(tmp_path / "a.pgm"),
                 "--in-b", str(tmp_path / "b.pgm"), "--out", str(tmp_path / "f.pgm")])
    assert code == 2


def test_fuse_bad_flag_is_usage_error(tmp_path):
    assert main(["fuse", "--method", "wavelet"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_eval_text_and_json(pair_files, tmp_path, capsys):
    path_a, path_b, a, b = pair_files
    fused_img = quantize(preprocess(a))
    fused = tmp_path / "fused.pgm"
    write_pgm(fused, fused_img)
    assert main(["eval", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--fused", str(fused)]) == 0
    text = capsys.readouterr().out
    for key in ("entropy", "sd", "mim", "qabf", "degenerate"):
        assert key in text
    assert main(["eval", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--fused", str(fused), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mim", "sd", "entropy", "qabf", "degenerate"}
    assert 0.0 <= payload["qabf"] <= 1.0


def test_synth_then_batch_csv(tmp_path, capsys):
    data_dir = tmp_path / "pairs"
    assert main(["synth", "--out-dir", str(data_dir), "--pairs", "3",
                 "--sigma", "1.5", "--seed", "5"]) == 0
    assert len(list(data_dir.glob("*_a.pgm"))) == 3
    report = tmp_path / "report.csv"
    code = main(["batch", "--dir", str(data_dir), "--methods", "moment,average",
                 "--report", str(report), "--format", "csv"])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "pair_id,method,mim,sd,entropy,qabf,degenerate"
    assert len(lines) == 1 + 3 * 2 + 2  # header, rows, two aggregate rows
    capsys.readouterr()


@pytest.mark.parametrize("pair_id", ['x,"y"', "\u00e9"])
def test_batch_csv_keeps_any_pair_id_in_one_cell(tmp_path, capsys, pair_id):
    data_dir = tmp_path / "pairs"
    assert main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "5"]) == 0
    for side in "ab":
        os.rename(data_dir / f"000_{side}.pgm", data_dir / f"{pair_id}_{side}.pgm")
    report = tmp_path / "report.csv"
    assert main(["batch", "--dir", str(data_dir), "--report", str(report)]) == 0
    with open(report, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {7}
    assert pair_id in {row[0] for row in rows}
    capsys.readouterr()


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_synth_with_non_finite_sigma_exits_1(tmp_path, capsys, sigma):
    out_dir = tmp_path / "pairs"
    assert main(["synth", "--out-dir", str(out_dir), "--sigma", sigma]) == 1
    err = capsys.readouterr().err
    assert err == f"momentfuse: error: sigma must be finite, got {sigma}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["1e5", "1e308"])
def test_synth_with_a_sigma_above_the_bound_exits_1(tmp_path, capsys, sigma):
    out_dir = tmp_path / "pairs"
    assert main(["synth", "--out-dir", str(out_dir), "--sigma", sigma]) == 1
    err = capsys.readouterr().err
    assert err == f"momentfuse: error: sigma must be at most 100.0, got {float(sigma)}\n"
    assert not out_dir.exists()


def test_batch_summary_counts_distinct_methods(tmp_path, capsys):
    base = tmp_path / "base.pgm"
    write_pgm(base, random_texture(16, 16, np.random.default_rng(3)))
    data_dir = tmp_path / "pairs"
    assert main(["synth", "--base", str(base), "--out-dir", str(data_dir),
                 "--pairs", "2", "--seed", "3"]) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["batch", "--dir", str(data_dir), "--methods", "moment,moment,average",
                 "--report", str(report), "--format", "json"]) == 0
    assert "(2 pairs x 2 methods, format=json)" in capsys.readouterr().out
    assert {row["method"] for row in json.loads(report.read_text())["rows"]} == {"moment", "average"}


def test_synth_with_base_image(tmp_path):
    rng = np.random.default_rng(23)
    base = tmp_path / "base.pgm"
    write_pgm(base, random_texture(32, 32, rng))
    out_dir = tmp_path / "made"
    assert main(["synth", "--base", str(base), "--out-dir", str(out_dir),
                 "--pairs", "2", "--sigma", "1.0", "--seed", "9"]) == 0
    img = read_pgm(next(iter(sorted(out_dir.glob("*_a.pgm")))))
    assert img.shape == (32, 32)


def test_batch_deterministic_reports(tmp_path):
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "7"])
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    assert main(["batch", "--dir", str(data_dir), "--report", str(r1), "--seed", "1"]) == 0
    assert main(["batch", "--dir", str(data_dir), "--report", str(r2), "--seed", "1"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


@pytest.mark.parametrize("fault", ["emit_report", "os.replace"])
def test_failed_batch_keeps_previous_report(tmp_path, monkeypatch, capsys, fault):
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "7"])
    report = tmp_path / "r.csv"
    args = ["batch", "--dir", str(data_dir), "--methods", "average", "--report", str(report)]
    assert main(args) == 0
    before = report.read_bytes()

    if fault == "emit_report":
        def broken_emit(*args):
            raise RuntimeError("injected")
        monkeypatch.setattr(cli, "emit_report", broken_emit)
        with pytest.raises(RuntimeError, match="injected"):
            main(args)
    else:
        def broken_replace(src, dst):
            assert os.path.exists(src)  # the new report was written in full first
            raise OSError("injected")
        monkeypatch.setattr(os, "replace", broken_replace)
        assert main(args) == 2
        assert "injected" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["pairs", "r.csv"]


def test_batch_report_in_a_missing_directory_is_data_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["synth", "--out-dir", "pairs", "--pairs", "1", "--seed", "7"])
    capsys.readouterr()
    assert main(["batch", "--dir", "pairs", "--methods", "average",
                 "--report", "missing/r.csv"]) == 2
    assert capsys.readouterr().err == (
        "momentfuse: data error: [Errno 2] No such file or directory: 'missing/r.csv'\n")
    assert sorted(os.listdir(tmp_path)) == ["pairs"]
    assert sorted(os.listdir(tmp_path / "pairs")) == ["000_a.pgm", "000_b.pgm"]


def test_batch_json_report_with_manifest_and_skipped(tmp_path, capsys):
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "3"])
    capsys.readouterr()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"good {data_dir}/000_a.pgm {data_dir}/000_b.pgm\n"
        f"lost {data_dir}/zz_a.pgm {data_dir}/zz_b.pgm\n"
    )
    report = tmp_path / "report.json"
    code = main(["batch", "--manifest", str(manifest), "--methods", "moment",
                 "--report", str(report), "--format", "json"])
    assert code == 0
    assert "skipped lost" in capsys.readouterr().err
    payload = json.loads(report.read_text())
    assert [row["pair_id"] for row in payload["rows"]] == ["good"]
    assert payload["skipped"][0]["pair_id"] == "lost"


def test_batch_orphans_reported_as_skipped(tmp_path, capsys):
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "3"])
    write_pgm(data_dir / "alone_a.pgm", np.zeros((4, 4), dtype=np.uint8))
    report = tmp_path / "report.json"
    assert main(["batch", "--dir", str(data_dir), "--methods", "average",
                 "--report", str(report), "--format", "json"]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert {"pair_id": "alone_a.pgm", "reason": "unpaired file"} in payload["skipped"]


def test_batch_empty_directory_exit_code(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["batch", "--dir", str(empty), "--report", str(tmp_path / "r.csv")]) == 3


def test_batch_requires_exactly_one_source(tmp_path):
    assert main(["batch", "--report", str(tmp_path / "r.csv")]) == 1
    assert main(["batch", "--dir", str(tmp_path), "--manifest", str(tmp_path / "m.txt"),
                 "--report", str(tmp_path / "r.csv")]) == 1


def test_batch_unknown_method(tmp_path):
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "1", "--seed", "2"])
    assert main(["batch", "--dir", str(data_dir), "--methods", "moment,dwt",
                 "--report", str(tmp_path / "r.csv")]) == 1


def test_batch_bad_fuser_parameter_exits_1_with_the_fuse_message(pair_files, tmp_path, capsys):
    path_a, path_b, _, _ = pair_files
    assert main(["fuse", "--in-a", str(path_a), "--in-b", str(path_b),
                 "--out", str(tmp_path / "f.pgm"), "--window", "4"]) == 1
    fuse_error = capsys.readouterr().err
    assert "window must be odd and >= 1, got 4" in fuse_error
    data_dir = tmp_path / "pairs"
    main(["synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "2"])
    capsys.readouterr()
    report = tmp_path / "r.csv"
    assert main(["batch", "--dir", str(data_dir), "--report", str(report),
                 "--window", "4"]) == 1
    assert capsys.readouterr().err == fuse_error
    assert not report.exists()


def test_config_file_supplies_defaults_and_flags_win(pair_files, tmp_path):
    path_a, path_b, a, b = pair_files
    config = tmp_path / "fuse.conf"
    config.write_text(
        "# fusion settings\n"
        "method = moment\n"
        "window = 5\n"
        "source = original\n"
        f"in-a = {path_a}\n"
        f"in-b = {path_b}\n"
    )
    out = tmp_path / "fused.pgm"
    assert main(["fuse", "--config", str(config), "--out", str(out)]) == 0
    assert np.array_equal(read_pgm(out),
                          MomentFuser(window=5, source="original").fuse(a, b).fused_u8)
    # Explicit flag beats the config value.
    assert main(["fuse", "--config", str(config), "--out", str(out),
                 "--window", "3"]) == 0
    assert np.array_equal(read_pgm(out),
                          MomentFuser(window=3, source="original").fuse(a, b).fused_u8)


def test_config_unknown_key_is_usage_error(pair_files, tmp_path):
    path_a, path_b, _, _ = pair_files
    config = tmp_path / "bad.conf"
    config.write_text("wavelets = 4\n")
    assert main(["fuse", "--config", str(config), "--in-a", str(path_a),
                 "--in-b", str(path_b), "--out", str(tmp_path / "f.pgm")]) == 1


def _write_config(tmp_path, *lines):
    path = tmp_path / "run.conf"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


@pytest.mark.parametrize("spellings", [("in_a", "in-b"), ("in-a", "in_b")])
def test_config_keys_take_either_spelling(pair_files, tmp_path, spellings):
    path_a, path_b, a, b = pair_files
    config = _write_config(tmp_path, f"{spellings[0]} = {path_a}", f"{spellings[1]} = {path_b}")
    out = tmp_path / "fused.pgm"
    assert main(["fuse", "--config", str(config), "--out", str(out)]) == 0
    assert np.array_equal(read_pgm(out), MomentFuser().fuse(a, b).fused_u8)


def test_config_switches(pair_files, tmp_path, capsys):
    path_a, path_b, a, b = pair_files
    out = tmp_path / "fused.pgm"
    config = _write_config(tmp_path, "magnitude = false")
    assert main(["fuse", "--config", str(config), "--in-a", str(path_a),
                 "--in-b", str(path_b), "--out", str(out)]) == 0
    signed = MomentFuser(magnitude=False).fuse(a, b).fused_u8
    assert not np.array_equal(signed, MomentFuser().fuse(a, b).fused_u8)
    assert np.array_equal(read_pgm(out), signed)
    capsys.readouterr()
    config = _write_config(tmp_path, "json = yes")
    assert main(["eval", "--config", str(config), "--in-a", str(path_a),
                 "--in-b", str(path_b), "--fused", str(out)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"mim", "sd", "entropy", "qabf", "degenerate"}


def test_every_required_flag_can_come_from_the_config(pair_files, tmp_path, capsys):
    path_a, path_b, a, b = pair_files
    data_dir, fused = tmp_path / "pairs", tmp_path / "fused.pgm"
    runs = [
        ("synth", f"out_dir = {data_dir}", "pairs = 2", "seed = 3"),
        ("fuse", f"in_a = {path_a}", f"in_b = {path_b}", f"out = {fused}"),
        ("eval", f"in_a = {path_a}", f"in_b = {path_b}", f"fused = {fused}"),
        ("batch", f"dir = {data_dir}", f"report = {tmp_path / 'dir.csv'}"),
        ("batch", f"manifest = {tmp_path / 'pairs.txt'}", f"report = {tmp_path / 'manifest.csv'}"),
    ]
    (tmp_path / "pairs.txt").write_text(f"x {data_dir}/000_a.pgm {data_dir}/000_b.pgm\n")
    for command, *lines in runs:
        assert main([command, "--config", str(_write_config(tmp_path, *lines))]) == 0, command
    assert sorted(os.listdir(data_dir)) == ["000_a.pgm", "000_b.pgm", "001_a.pgm", "001_b.pgm"]
    assert np.array_equal(read_pgm(fused), MomentFuser().fuse(a, b).fused_u8)
    assert len((tmp_path / "dir.csv").read_text().splitlines()) == 1 + 2 * 3 + 3
    assert len((tmp_path / "manifest.csv").read_text().splitlines()) == 1 + 3 + 3
    capsys.readouterr()


@pytest.mark.parametrize("flag, override", [
    (["--window", "3"], {"window": 3}),
    (["--center", "17.9"], {"center": 17.9}),
    (["--source", "filtered"], {"source": "filtered"}),
    (["--no-magnitude"], {"magnitude": False}),
])
@pytest.mark.parametrize("flag_first", [True, False])
def test_a_command_line_flag_beats_the_config(pair_files, tmp_path, flag, override, flag_first):
    path_a, path_b, a, b = pair_files
    config = _write_config(tmp_path, "window = 5", "center = 9.0", "source = original",
                           "magnitude = true", f"in_a = {path_a}", f"in_b = {path_b}")
    from_config = dict(window=5, center=9.0, source="original", magnitude=True)
    expected = MomentFuser(**{**from_config, **override}).fuse(a, b).fused_u8
    assert not np.array_equal(expected, MomentFuser(**from_config).fuse(a, b).fused_u8)
    out = tmp_path / "fused.pgm"
    with_config = ["--config", str(config)]
    argv = flag + with_config if flag_first else with_config + flag
    assert main(["fuse", *argv, "--out", str(out)]) == 0
    assert np.array_equal(read_pgm(out), expected)


# `pairs` is a flag of synth, not of fuse, and a config file cannot name
# another one.
@pytest.mark.parametrize("line", ["window 5", "wavelets = 4", "window = abc", "magnitude = maybe",
                                  "pairs = 3", "config = run.conf"])
def test_a_bad_config_line_exits_1_with_one_error_line(pair_files, tmp_path, capsys, line):
    path_a, path_b, _, _ = pair_files
    out = tmp_path / "f.pgm"
    config = _write_config(tmp_path, line)
    assert main(["fuse", "--config", str(config), "--in-a", str(path_a),
                 "--in-b", str(path_b), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("momentfuse") and err.count("\n") == 1, err
    assert not out.exists()


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["fuse", "--help"]) == 0


# Allocates and frees 200 arrays of 512 KiB, two alive at a time, after an
# optional CLI run, and prints the minor page faults the loop took.
_FAULT_SCRIPT = textwrap.dedent("""
    import resource, sys, tempfile
    import numpy as np
    from momentfuse import cli
    if sys.argv[1] == "main":
        with tempfile.TemporaryDirectory() as out_dir:
            assert cli.main(["synth", "--out-dir", out_dir, "--pairs", "1"]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(100):
        live = [np.ones(1 << 16), np.ones(1 << 16)]
        del live
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


def _loop_faults(mode):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentfuse.__file__)))
    done = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT, mode], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                    reason="needs glibc's mallopt")
def test_main_keeps_the_heap_between_arrays():
    # By default glibc trims the heap after the pair is freed and faults in
    # fresh pages for the next; after `main` the freed pages are reused.
    with_main, without = _loop_faults("main"), _loop_faults("none")
    assert with_main * 10 < without, (with_main, without)


@pytest.mark.parametrize("fault", [OSError("no libc"), AttributeError("mallopt")])
def test_main_runs_without_mallopt(tmp_path, monkeypatch, fault):
    def no_libc(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert main(["synth", "--out-dir", str(tmp_path), "--pairs", "1"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["000_a.pgm", "000_b.pgm"]


# Calls the console script's entry point (`module:function`, the first
# argument) as the script that pip generates for it does:
# sys.exit(function()), with the remaining arguments in sys.argv.
_ENTRY_POINT_SCRIPT = textwrap.dedent("""
    import importlib, sys
    module, _, function = sys.argv.pop(1).partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
""")


def test_console_script_runs_synth_batch_and_eval(tmp_path):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml"), "rb") as fh:
        entry_point = tomllib.load(fh)["project"]["scripts"]["momentfuse"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentfuse.__file__)))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", _ENTRY_POINT_SCRIPT, entry_point, *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    data_dir = tmp_path / "pairs"
    pair_a, pair_b = str(data_dir / "000_a.pgm"), str(data_dir / "000_b.pgm")
    done = [run("synth", "--out-dir", str(data_dir), "--pairs", "2", "--seed", "4"),
            run("batch", "--dir", str(data_dir), "--report", str(tmp_path / "r.csv")),
            run("eval", "--in-a", pair_a, "--in-b", pair_b, "--fused", pair_a, "--json"),
            run("eval", "--in-a", pair_a, "--wavelets", "4")]
    assert [proc.returncode for proc in done] == [0, 0, 0, 1], [proc.stderr for proc in done]
    assert "Traceback" not in done[3].stderr
    assert set(json.loads(done[2].stdout)) == {"mim", "sd", "entropy", "qabf", "degenerate"}
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + 2 * 3 + 3
