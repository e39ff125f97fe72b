"""momentfuse benchmark.

One workload, one process:

    python3 benchmarks/run.py --workload fuse_2048 --seed 0 --seconds 30 --trace 0

prints the metrics by name with their units, a `detail` line (environment,
tail percentile and sample count, fail ratio, ...) and, as the last line, the
result as one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.

Every workload, each in its own process, both trace modes:

    python3 benchmarks/run.py --all [--seeds 0 1] [--record benchmarks/results/BENCH_n.json]

The program is imported from src/ of the checkout that holds this file; the
benchmark refuses to run without it. Scratch files go to .bench_out/ there.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("fuse_2048", "batch_256", "pair_1024")


def _import_program():
    """Put the checkout's src/ first on the path, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "momentfuse", "__init__.py")):
        sys.exit(f"benchmark: no momentfuse sources in {SRC}")
    sys.path.insert(0, SRC)
    import momentfuse
    if not os.path.abspath(momentfuse.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: momentfuse was imported from {momentfuse.__file__}, not {SRC}")


def _print_result(result):
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']!r} {metric['unit']}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    for metric in line["metrics"].values():
        if not math.isfinite(metric["value"]):  # nothing measured: every op failed
            metric["value"] = None
    print(json.dumps(line), flush=True)


def _run_one(args):
    _import_program()
    import harness
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workdir=os.path.join(OUT, f"work-{tag}-{os.getpid()}"),
        spans_path=os.path.join(OUT, f"spans-{tag}.json") if args.trace else None,
    )
    _print_result(result)


def _run_all(args):
    _import_program()
    import hostinfo
    runs = []
    ok = True
    for seed in args.seeds:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                    ok = False
                    continue
                result = json.loads(lines[-1])
                result["detail"] = json.loads(lines[-2][len("detail "):])
                runs.append(result)
                ok = ok and result["correct"]
                print(f"== {name} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"fail_ratio={result['detail']['fail_ratio']!r}")
                for metric, m in result["metrics"].items():
                    print(f"   {metric:36s} {m['value']!r} {m['unit']}")
    if args.record:
        record = {"environment": hostinfo.environment(), "runs": runs}
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": ok, "runs": len(runs)}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="every workload, both trace modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="with --all")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --all: write every result to this JSON file")
    args = parser.parse_args(argv)
    if args.all:
        _run_all(args)
    elif args.workload:
        _run_one(args)
    else:
        parser.error("give --workload NAME or --all")


if __name__ == "__main__":
    main()
