"""One benchmark run of one workload: set-up, a closed loop of ops for a fixed
time, per-op checks, and the metrics.

Closed loop, one caller: the next op starts when the previous one returns;
no other thread generates load. With trace=False the ops run untraced and
give the end-to-end metrics; peak memory comes from one more op in a forked
child, so the checks' memory is left out. With trace=True untraced and traced ops
alternate on the same input, so each traced output is checked bit for bit
against the untraced one, and the spans give the per-layer metrics.
"""

import contextlib
import ctypes
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

import hostinfo
import spans
from workloads import WORKLOADS, Batch256

# Set up at least SETUP_REPEATS times, and more while the set-ups so far took
# less than SETUP_SECONDS, so that short set-ups get a steadier median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ns_per_px", "ns/px"),
    ("peak_rss_mib", "MiB"),
    ("decision_acc", "ratio"),
    ("qabf_mean", "ratio"),
]
PER_LAYER = [(name, unit) for name, unit, _ in spans.SPAN_METRICS] + [
    ("fusion.select_a_share", "ratio"),
    ("fusion.tie_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _median(samples):
    return statistics.median(samples) if samples else float("nan")


def tail(samples):
    """(value, percentile, samples beyond it) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return float("nan"), 100.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based rank of the value
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


class _Run:
    def __init__(self, workload, trace):
        self.workload = workload
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failures = []
        self.untraced_ms = []
        self.traced_ms = []

    def op(self, i, traced=False, timed=True):
        """Run, time and check op i; return nothing, record everything."""
        workload, tracer = self.workload, self.tracer
        self.attempted += 1
        if traced:
            tracer.op = i
        context = spans.instrumented(tracer) if traced else contextlib.nullcontext()
        start = time.perf_counter_ns()
        try:
            with context:
                out = workload.op(i)
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
            failure = workload.check(i, out)
        except Exception as exc:  # an op or check that raises is a failed op, not a crashed run
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            self.failures.append(f"op {i}: {failure}")
        elif timed:
            (self.traced_ms if traced else self.untraced_ms).append(elapsed_ms)


# Untraced-run times are scaled to a fixed machine speed. Before every timed
# op, reference_ms times a numpy stencil that uses no momentfuse code, on a
# raster of the workload's side; a run's op and set-up times are multiplied
# by the workload's nominal reference time over the run's median reference
# time. The VM the benchmark was defined on drifts by up to 30% in speed over
# minutes; the reference drifts with it, so scaled times spread far less from
# run to run. A change to the program moves a scaled time by the same share
# as the raw one, which the detail line also gives.
REFERENCE_PIXELS = 1 << 22


def reference_ms(raster, out):
    """Milliseconds for the fixed stencil over at least REFERENCE_PIXELS
    pixels of `raster`, in full-raster passes into the preallocated `out`:
    nothing is allocated, so the allocator's state does not enter the figure."""
    up, down, left, right = raster[:-2, 1:-1], raster[2:, 1:-1], raster[1:-1, :-2], raster[1:-1, 2:]
    start = time.perf_counter_ns()
    for _ in range(max(1, REFERENCE_PIXELS // raster.size)):
        np.add(up, down, out=out)
        np.add(out, left, out=out)
        np.add(out, right, out=out)
        np.arctan(out, out=out)
    return (time.perf_counter_ns() - start) / 1e6


def _setup(workload, seed, tracer):
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        if tracer is None:
            workload.setup(seed)
        else:
            tracer.op = "setup"
            with spans.instrumented(tracer):
                workload.setup(seed)
        times.append(time.perf_counter() - start)
    return times


def op_peak_rss_mib(workload):
    """Peak RSS in MiB of a forked child that runs op 0 once, unchecked.

    A child's RUSAGE_SELF peak starts from its resident set at the fork. The
    parent first hands the free pages of its C heap back to the system, so
    the figure is the live inputs plus one op's own footprint: the set-up's
    freed temporaries and the checks' copies are not counted."""
    malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if malloc_trim is not None:
        malloc_trim(0)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report the peak through the pipe, never return
        code = 1
        try:
            os.close(read_fd)
            workload.op(0)
            os.write(write_fd, str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss).encode())
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        raise RuntimeError(f"peak-memory child exited with status {status}")
    return int(text) / 1024


def _probe(run, workdir, seed):
    """Traced CLI batch over two 32x32 pairs. Layers the workload's own op never
    calls take their per-layer figures from this probe."""
    probe = Batch256(os.path.join(workdir, "probe"), size=32, pairs=2)
    probe.setup(seed)
    tracer = run.tracer
    tracer.op = "probe"
    with spans.instrumented(tracer):
        out = probe.op(0)
    return probe.check(0, out)


def _per_layer(run):
    table = spans.SpanTable(run.tracer.spans)
    traced_ops = {s[spans.OP] for s in run.tracer.spans if isinstance(s[spans.OP], int)}
    values, sources = {}, {}
    for name, unit, measure in spans.SPAN_METRICS:
        for source, ops in (("ops", traced_ops), ("setup", {"setup"}), ("probe", {"probe"})):
            value = measure(table, ops)
            if value is not None:
                values[name], sources[name] = value, source
                break
        else:
            values[name], sources[name] = float("nan"), None
    values["fusion.select_a_share"] = run.workload.decision_share(1)
    values["fusion.tie_share"] = run.workload.decision_share(2)
    values["trace.overhead_ratio"] = _median(run.traced_ms) / _median(run.untraced_ms)
    return values, sources


def run_workload(name, seed, seconds, trace, workdir, size=None, pairs=None, spans_path=None):
    """Run one workload for `seconds` and return its result dict (the printed
    result line plus a `detail` entry)."""
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[name](workdir, size, pairs)
        run = _Run(workload, trace)
        setup_s = _setup(workload, seed, run.tracer)
        problems = []
        peak_rss_mib = float("nan")
        if not trace:
            try:
                peak_rss_mib = op_peak_rss_mib(workload)
            except Exception as exc:
                problems.append(f"peak memory: {type(exc).__name__}: {exc}")

        raster = np.random.default_rng(0).random((workload.size, workload.size))
        stencil_out = np.zeros((workload.size - 2, workload.size - 2))
        ref = []  # reference_ms before each untraced-run op
        run.op(0, timed=False)  # warm-up: checked and counted, not timed
        deadline = time.perf_counter() + seconds
        i = 0
        while (time.perf_counter() < deadline or i < 2 or (trace and i % 2)):
            if not trace:
                ref.append(reference_ms(raster, stencil_out))
            run.op(i // 2 if trace else i, traced=trace and i % 2 == 1)
            i += 1

        problems += run.failures
        detail = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "size": workload.size, "pairs": workload.pairs,
            "pixels_per_op": workload.pixels_per_op,
            "setup_runs_s": setup_s,
            "ops_untraced": len(run.untraced_ms), "ops_traced": len(run.traced_ms),
            "fail_ratio": len(run.failures) / run.attempted,
            "environment": hostinfo.environment(workload),
        }
        if trace:
            probe_failure = _probe(run, workdir, seed)
            if probe_failure:
                problems.append(f"probe: {probe_failure}")
            values, detail["layer_source"] = _per_layer(run)
            units = dict(PER_LAYER)
            if spans_path:
                run.tracer.write(spans_path)
        else:
            scale = workload.reference_ms / _median(ref)
            p50 = _median(run.untraced_ms) * scale
            if workload.verified:
                decision_acc, qabf_mean = workload.decision_acc(), workload.qabf_mean()
            else:
                decision_acc = qabf_mean = float("nan")
                problems.append("no verified output to score")
            tail_ms, tail_pct, beyond = tail(run.untraced_ms)
            detail["op_ms_tail_percentile"] = tail_pct
            detail["op_ms_tail_beyond"] = beyond
            detail["op_ms_samples"] = len(run.untraced_ms)
            detail["reference_ms_p50"] = _median(ref)
            detail["speed_scale"] = scale
            detail["op_ms_p50_raw"] = _median(run.untraced_ms)
            detail["op_ms_tail_raw"] = tail_ms
            detail["setup_s_raw"] = statistics.median(setup_s)
            values = {
                "setup_s": statistics.median(setup_s) * scale,
                "op_ms_p50": p50,
                "op_ms_tail": tail_ms * scale,
                "ns_per_px": p50 * 1e6 / workload.pixels_per_op,
                "peak_rss_mib": peak_rss_mib,
                "decision_acc": decision_acc,
                "qabf_mean": qabf_mean,
            }
            units = dict(END_TO_END)
        detail["problems"] = problems[:20]
        return {
            "correct": not problems,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
            "detail": detail,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
