"""Command-line front end: fuse, eval, batch, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 data error (decode or size mismatch),
3 empty batch. Every flag can also be supplied through a flat key=value
config file (--config); explicit command-line flags win on conflict.
"""

import argparse
import json
import os
import sys

import numpy as np

from .batch import (
    EmptyBatchError,
    discover_pairs,
    emit_report,
    read_manifest,
    run_batch,
)
from .filters import DEFAULT_CENTER_WEIGHT
from .fusion import FUSION_METHODS, make_fuser
from .metrics import evaluate
from .pgm import PgmError, read_pgm, write_atomically, write_pgm
from .synthetic import synthesize_pairs
from .validation import ShapeMismatchError


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"invalid boolean value {text!r}")


# Every CLI flag, with the converter used when it arrives via config file.
_CONFIG_KEYS = {
    "in_a": str, "in_b": str, "out": str, "fused": str, "dump_decision": str,
    "method": str, "source": str, "methods": str, "format": str,
    "dir": str, "manifest": str, "report": str, "base": str, "out_dir": str,
    "p": int, "q": int, "window": int, "seed": int, "pairs": int,
    "center": float, "sigma": float,
    "magnitude": _parse_bool, "json": _parse_bool,
}

_DEFAULTS = {
    "method": "moment",
    "source": "filtered",
    "p": 1,
    "q": 1,
    "window": 3,
    "center": DEFAULT_CENTER_WEIGHT,
    "magnitude": True,
    "methods": ",".join(FUSION_METHODS),
    "format": "csv",
    "seed": 0,
    "pairs": 20,
    "sigma": 2.0,
    "json": False,
}


def _load_config(path) -> dict:
    if path is None:
        return {}
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            config[key] = _CONFIG_KEYS[key](value.strip())
    return config


def _resolve(args, config: dict, key: str, default=None):
    """Merge one option: explicit CLI flag beats config beats default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return _DEFAULTS.get(key, default)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required option {flag}")
    return value


def _choose(value, flag: str, choices):
    if value not in choices:
        raise UsageError(f"invalid value {value!r} for {flag}; expected one of {', '.join(choices)}")
    return value


def _fuser_params(args, config) -> dict:
    return {
        "p": _resolve(args, config, "p"),
        "q": _resolve(args, config, "q"),
        "window": _resolve(args, config, "window"),
        "magnitude": _resolve(args, config, "magnitude"),
        "source": _choose(_resolve(args, config, "source"), "--source", ("filtered", "original")),
        "center": _resolve(args, config, "center"),
    }


def _add_fusion_flags(parser):
    parser.add_argument("--source", choices=("filtered", "original"),
                        help="draw fused pixels from the filtered or the original rasters")
    parser.add_argument("--p", type=int, help="row-index exponent of the local moment")
    parser.add_argument("--q", type=int, help="column-index exponent of the local moment")
    parser.add_argument("--window", type=int, help="odd moment window side length")
    parser.add_argument("--center", type=float,
                        help="center weight of the preprocessing mask")
    parser.add_argument("--magnitude", dest="magnitude", action="store_const", const=True,
                        help="score absolute filtered values (default)")
    parser.add_argument("--no-magnitude", dest="magnitude", action="store_const", const=False,
                        help="score signed filtered values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentfuse",
                     description="Grayscale image fusion through local-moment decision maps.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    fuse = sub.add_parser("fuse", help="fuse one registered pair into an output raster")
    fuse.add_argument("--in-a", dest="in_a", help="first source PGM")
    fuse.add_argument("--in-b", dest="in_b", help="second source PGM")
    fuse.add_argument("--out", help="output PGM path")
    fuse.add_argument("--method", choices=FUSION_METHODS)
    _add_fusion_flags(fuse)
    fuse.add_argument("--dump-decision", dest="dump_decision",
                      help="write the decision map as a 0/255 PGM (255 = first source)")
    fuse.add_argument("--config", help="key=value config file; flags win on conflict")
    fuse.set_defaults(func=cmd_fuse)

    evl = sub.add_parser("eval", help="evaluate a fused raster against its sources")
    evl.add_argument("--in-a", dest="in_a", help="first source PGM")
    evl.add_argument("--in-b", dest="in_b", help="second source PGM")
    evl.add_argument("--fused", help="fused PGM to score")
    evl.add_argument("--json", action="store_const", const=True,
                     help="emit the record as JSON instead of plain text")
    evl.add_argument("--config", help="key=value config file; flags win on conflict")
    evl.set_defaults(func=cmd_eval)

    batch = sub.add_parser("batch", help="fuse and evaluate a whole pair collection")
    batch.add_argument("--dir", help="directory of <id>_a.pgm / <id>_b.pgm pairs")
    batch.add_argument("--manifest", help="manifest of '<id> <path_a> <path_b>' lines")
    batch.add_argument("--methods", help="comma-separated methods (default: all)")
    batch.add_argument("--report", help="report output path")
    batch.add_argument("--format", choices=("csv", "json"))
    batch.add_argument("--seed", type=int,
                       help="seed recorded for scripted runs; batch processing is deterministic")
    _add_fusion_flags(batch)
    batch.add_argument("--config", help="key=value config file; flags win on conflict")
    batch.set_defaults(func=cmd_batch)

    synth = sub.add_parser("synth", help="generate complementary-blur test pairs")
    synth.add_argument("--base", help="sharp base PGM (random textures when omitted)")
    synth.add_argument("--out-dir", dest="out_dir", help="directory for <id>_a/_b.pgm pairs")
    synth.add_argument("--pairs", type=int, help="number of pairs (default 20)")
    synth.add_argument("--sigma", type=float, help="Gaussian blur sigma (default 2.0)")
    synth.add_argument("--seed", type=int, help="seed for textures and seam positions")
    synth.add_argument("--config", help="key=value config file; flags win on conflict")
    synth.set_defaults(func=cmd_synth)

    return parser


def cmd_fuse(args) -> int:
    config = _load_config(args.config)
    method = _choose(_resolve(args, config, "method"), "--method", FUSION_METHODS)
    in_a = _require(_resolve(args, config, "in_a"), "--in-a")
    in_b = _require(_resolve(args, config, "in_b"), "--in-b")
    out = _require(_resolve(args, config, "out"), "--out")
    dump_decision = _resolve(args, config, "dump_decision")

    a = read_pgm(in_a)
    b = read_pgm(in_b)
    fuser = make_fuser(method, **_fuser_params(args, config))
    result = fuser.fuse(a, b)
    if dump_decision is not None and result.decision is None:
        raise UsageError(f"--dump-decision needs a selection method; {method!r} has no decision map")
    write_pgm(out, result.fused_u8)
    if dump_decision is not None:
        write_pgm(dump_decision, np.where(result.decision, 255, 0).astype(np.uint8))
    height, width = result.fused_u8.shape
    print(f"wrote {out} ({width}x{height}, method={method})")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    in_a = _require(_resolve(args, config, "in_a"), "--in-a")
    in_b = _require(_resolve(args, config, "in_b"), "--in-b")
    fused = _require(_resolve(args, config, "fused"), "--fused")

    record = evaluate(read_pgm(in_a), read_pgm(in_b), read_pgm(fused))
    payload = record.as_dict()
    if _resolve(args, config, "json"):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in ("entropy", "sd", "mim", "qabf"):
            print(f"{key:10s} {payload[key]!r}")
        print(f"{'degenerate':10s} {'true' if payload['degenerate'] else 'false'}")
    return 0


def cmd_batch(args) -> int:
    config = _load_config(args.config)
    directory = _resolve(args, config, "dir")
    manifest = _resolve(args, config, "manifest")
    if (directory is None) == (manifest is None):
        raise UsageError("exactly one of --dir or --manifest is required")
    report_path = _require(_resolve(args, config, "report"), "--report")
    fmt = _choose(_resolve(args, config, "format"), "--format", ("csv", "json"))
    methods = [m.strip() for m in _resolve(args, config, "methods").split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for method in methods:
        _choose(method, "--methods", FUSION_METHODS)

    orphans = []
    if directory is not None:
        pairs, orphans = discover_pairs(directory)
    else:
        pairs = read_manifest(manifest)

    report = run_batch(pairs, methods, **_fuser_params(args, config))
    report.skipped = sorted(
        report.skipped + [(name, "unpaired file") for name in orphans]
    )
    for pair_id, reason in report.skipped:
        print(f"skipped {pair_id}: {reason}", file=sys.stderr)
    write_atomically(report_path, emit_report(report, fmt))
    n_pairs = len({row.pair_id for row in report.rows})
    print(f"wrote {report_path} ({n_pairs} pairs x {len(methods)} methods, format={fmt})")
    return 0


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    out_dir = _require(_resolve(args, config, "out_dir"), "--out-dir")
    base_path = _resolve(args, config, "base")
    n_pairs = _resolve(args, config, "pairs")
    sigma = _resolve(args, config, "sigma")
    seed = _resolve(args, config, "seed")

    base = read_pgm(base_path) if base_path is not None else None
    generated = synthesize_pairs(n_pairs, sigma, seed, base=base)
    os.makedirs(out_dir, exist_ok=True)
    for pair_id, pair in generated:
        write_pgm(os.path.join(out_dir, f"{pair_id}_a.pgm"), pair.a)
        write_pgm(os.path.join(out_dir, f"{pair_id}_b.pgm"), pair.b)
    print(f"wrote {len(generated)} pairs to {out_dir} (sigma={sigma}, seed={seed})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"momentfuse: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Covers ShapeMismatchError and PgmError (both ValueError subclasses)
        # as well as bad parameter values from the library layer.
        if isinstance(exc, (PgmError, ShapeMismatchError)):
            print(f"momentfuse: data error: {exc}", file=sys.stderr)
            return 2
        print(f"momentfuse: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"momentfuse: data error: {exc}", file=sys.stderr)
        return 2
    except EmptyBatchError as exc:
        print(f"momentfuse: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
