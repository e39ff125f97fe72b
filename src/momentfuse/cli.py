"""Command-line front end: fuse, eval, batch, and synth subcommands.

Exit codes: 0 success, 1 usage error, 2 data error (decode or size mismatch),
3 empty batch. Each `key = value` line of a --config file is read as the flag
--key=value of the same subcommand, placed before the command-line flags, so
those win on conflict.
"""

import argparse
import ctypes
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
from .fusion import FUSION_METHODS, MomentFuser, make_fuser
from .metrics import evaluate
from .pgm import PgmError, read_pgm, write_atomically, write_pgm
from .synthetic import synthesize_pairs
from .validation import ShapeMismatchError


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that raises UsageError (exit 1, one stderr line)
    where argparse would print its usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"invalid boolean value {text!r}")


# The flags a switch's false and true config values stand for.
_SWITCHES = {"magnitude": (["--no-magnitude"], ["--magnitude"]), "json": ([], ["--json"])}


def _config_flags(path) -> list:
    """The flags a key=value config file names: `key = value` is `--key=value`
    (`_` in a key reads as `-`), and a switch's boolean word is its flag."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, equals, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if not equals or key == "config":
                raise UsageError(f"{path}:{lineno}: expected key=value for a flag other than "
                                 f"--config, got {line!r}")
            value = value.strip()
            if key in _SWITCHES:
                flags += _SWITCHES[key][_parse_bool(value)]
            else:
                flags.append(f"--{key}={value}")
    return flags


def _with_config(argv: list) -> list:
    """argv with its --config file's flags right after the subcommand name,
    so that every flag given on the command line comes later and wins."""
    config = _Parser(add_help=False)
    config.add_argument("--config")
    path = config.parse_known_args(argv)[0].config
    return argv if path is None else argv[:1] + _config_flags(path) + argv[1:]


def _methods(text: str) -> list:
    """--methods: the names of a comma-separated list, which `run_batch` checks."""
    return [m.strip() for m in text.split(",") if m.strip()]


def _fuser_params(args) -> dict:
    return {name: getattr(args, name) for name in MomentFuser().get_params()}


def _add_fusion_flags(parser):
    """The moment fuser's parameters as flags; their defaults are its fields,
    and the fuser checks their values."""
    parser.add_argument("--source", help="take fused pixels from 'filtered' or 'original' rasters")
    parser.add_argument("--p", type=int, help="row-index exponent of the local moment")
    parser.add_argument("--q", type=int, help="column-index exponent of the local moment")
    parser.add_argument("--window", type=int, help="odd moment window side length")
    parser.add_argument("--center", type=float, help="center weight of the preprocessing mask")
    parser.add_argument("--magnitude", action=argparse.BooleanOptionalAction,
                        help="score absolute filtered values, or signed ones with "
                             "--no-magnitude (default: %(default)s)")
    parser.set_defaults(**MomentFuser().get_params())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="momentfuse",
                     description="Grayscale image fusion through local-moment decision maps.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, summary):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--config", help="key=value config file; flags win on conflict")
        cmd.set_defaults(func=func)
        return cmd

    fuse = command("fuse", cmd_fuse, "fuse one registered pair into an output raster")
    fuse.add_argument("--in-a", required=True, help="first source PGM")
    fuse.add_argument("--in-b", required=True, help="second source PGM")
    fuse.add_argument("--out", required=True, help="output PGM path")
    fuse.add_argument("--method", choices=FUSION_METHODS, default="moment")
    _add_fusion_flags(fuse)
    fuse.add_argument("--dump-decision",
                      help="write the decision map as a 0/255 PGM (255 = first source)")

    evl = command("eval", cmd_eval, "evaluate a fused raster against its sources")
    evl.add_argument("--in-a", required=True, help="first source PGM")
    evl.add_argument("--in-b", required=True, help="second source PGM")
    evl.add_argument("--fused", required=True, help="fused PGM to score")
    evl.add_argument("--json", action="store_true",
                     help="emit the record as JSON instead of plain text")

    batch = command("batch", cmd_batch, "fuse and evaluate a whole pair collection")
    pairs = batch.add_mutually_exclusive_group(required=True)
    pairs.add_argument("--dir", help="directory of <id>_a.pgm / <id>_b.pgm pairs")
    pairs.add_argument("--manifest", help="manifest of '<id> <path_a> <path_b>' lines")
    batch.add_argument("--methods", type=_methods, default=list(FUSION_METHODS),
                       help="comma-separated methods (default: all)")
    batch.add_argument("--report", required=True, help="report output path")
    batch.add_argument("--format", choices=("csv", "json"), default="csv")
    batch.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: batch processing is deterministic")
    _add_fusion_flags(batch)

    synth = command("synth", cmd_synth, "generate complementary-blur test pairs")
    synth.add_argument("--base", help="sharp base PGM (random textures when omitted)")
    synth.add_argument("--out-dir", required=True, help="directory for <id>_a/_b.pgm pairs")
    synth.add_argument("--pairs", type=int, default=20,
                       help="number of pairs (default %(default)s)")
    synth.add_argument("--sigma", type=float, default=2.0,
                       help="Gaussian blur sigma (default %(default)s)")
    synth.add_argument("--seed", type=int, default=0, help="seed for textures and seam positions")

    return parser


def cmd_fuse(args) -> int:
    fuser = make_fuser(args.method, **_fuser_params(args))
    fuser._check_params()
    if args.dump_decision is not None:
        if not isinstance(fuser, MomentFuser):
            raise UsageError(
                f"--dump-decision needs a selection method; {args.method!r} has no decision map")
        if os.path.realpath(args.dump_decision) == os.path.realpath(args.out):
            raise UsageError(f"--dump-decision and --out name the same file {args.out!r}")
    a = read_pgm(args.in_a)
    b = read_pgm(args.in_b)
    result = fuser.fuse(a, b)
    write_pgm(args.out, result.fused_u8)
    if args.dump_decision is not None:
        write_pgm(args.dump_decision, np.where(result.decision, 255, 0).astype(np.uint8))
    height, width = result.fused_u8.shape
    print(f"wrote {args.out} ({width}x{height}, method={args.method})")
    return 0


def cmd_eval(args) -> int:
    record = evaluate(read_pgm(args.in_a), read_pgm(args.in_b), read_pgm(args.fused))
    payload = record.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key in ("entropy", "sd", "mim", "qabf"):
            print(f"{key:10s} {payload[key]!r}")
        print(f"{'degenerate':10s} {'true' if payload['degenerate'] else 'false'}")
    return 0


def _print_skipped(skipped, orphans) -> list:
    """The skipped pairs and the unpaired files, sorted, each printed on stderr."""
    skipped = sorted(skipped + [(name, "unpaired file") for name in orphans])
    for pair_id, reason in skipped:
        print(f"skipped {pair_id}: {reason}", file=sys.stderr)
    return skipped


def cmd_batch(args) -> int:
    orphans = []
    if args.dir is not None:
        pairs, orphans = discover_pairs(args.dir)
    else:
        pairs = read_manifest(args.manifest)

    try:
        report = run_batch(pairs, args.methods, **_fuser_params(args))
    except EmptyBatchError as exc:
        _print_skipped(exc.skipped, orphans)
        raise
    report.skipped = _print_skipped(report.skipped, orphans)
    write_atomically(args.report, emit_report(report, args.format))
    n_pairs = len({row.pair_id for row in report.rows})
    print(f"wrote {args.report} ({n_pairs} pairs x {len(set(args.methods))} methods, "
          f"format={args.format})")
    return 0


def cmd_synth(args) -> int:
    base = read_pgm(args.base) if args.base is not None else None
    generated = synthesize_pairs(args.pairs, args.sigma, args.seed, base=base)
    os.makedirs(args.out_dir, exist_ok=True)
    for pair_id, pair in generated:
        write_pgm(os.path.join(args.out_dir, f"{pair_id}_a.pgm"), pair.a)
        write_pgm(os.path.join(args.out_dir, f"{pair_id}_b.pgm"), pair.b)
    print(f"wrote {len(generated)} pairs to {args.out_dir} (sigma={args.sigma}, seed={args.seed})")
    return 0


# glibc mallopt parameters, and the values the CLI sets them to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 256 << 20
_MMAP_THRESHOLD = 32 << 20  # the documented maximum on 64-bit; older glibc rejects more


def _keep_heap():
    """Keep freed C heap memory in this process between rasters.

    By default glibc hands the top of the heap back after each large free
    and regrows it on the next allocation, so every raster-sized array of a
    small pair costs fresh zero-filled pages. Both thresholds must move: a
    raised trim threshold alone sends those arrays to mmap, which faults
    more. The CLI owns its process, so it sets this; the library does not.
    Without glibc's mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success. The mmap threshold goes first, so a
    # failure never leaves the trim threshold raised on its own.
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_heap()
    try:
        args = build_parser().parse_args(_with_config(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (PgmError, ShapeMismatchError, OSError) as exc:
        print(f"momentfuse: data error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:  # ValueError: a bad parameter value
        print(f"momentfuse: error: {exc}", file=sys.stderr)
        return 1
    except EmptyBatchError as exc:
        print(f"momentfuse: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
