"""In-memory span recorder, the instrumentation that feeds it, and the
per-layer metrics computed from the recorded spans.

Spans are recorded from the benchmark's side of each call into a momentfuse
module: while a traced op runs, the public functions the op reaches are
swapped, in every momentfuse module that references them, for wrappers that
open a span around the original. `MomentFuser.fuse` and `evaluate` are
replaced by staged copies built from their public stage functions in the
order those functions call them, so the fuse internals (the `np.where`
select step included) get spans of their own. The workloads check the staged
results against the untraced ones bit for bit.
"""

import contextlib
import functools
import json
import statistics
import sys
import time

import numpy as np

from momentfuse import batch, cli, filters, fusion, image, metrics, pgm, synthetic, validation

# A span: [name, start_ns, end_ns, parent index (-1 at the top), op id, pixels, bytes].
NAME, START, END, PARENT, OP, PIXELS, NBYTES = range(7)


class Tracer:
    """Records nested spans in memory; `op` tags every span opened while set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, pixels=0):
        record = [name, time.perf_counter_ns(), 0,
                  self._stack[-1] if self._stack else -1, self.op, pixels, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path):
        """Write every span out as a JSON list of objects."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "pixels", "bytes")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# Instrumentation swaps image.quantize too; the staged fuse opens its own span.
_quantize = image.quantize


def staged_fuse(tracer, fuser, a, b):
    """`MomentFuser.fuse`, one span per stage, in the order fuse calls them."""
    if fuser.source not in ("filtered", "original"):
        raise ValueError(f"source must be 'filtered' or 'original', got {fuser.source!r}")
    a, b = fuser._check_pair(a, b)
    with tracer.span("filters.preprocess", a.size):
        fa = filters.preprocess(a, fuser.center)
    with tracer.span("filters.preprocess", b.size):
        fb = filters.preprocess(b, fuser.center)
    with tracer.span("fusion.local_moment_map", fa.size):
        ma = fusion.local_moment_map(fa, fuser.p, fuser.q, fuser.window, fuser.magnitude)
    with tracer.span("fusion.local_moment_map", fb.size):
        mb = fusion.local_moment_map(fb, fuser.p, fuser.q, fuser.window, fuser.magnitude)
    with tracer.span("fusion.decision_map", ma.size):
        select_a = fusion.decision_map(ma, mb)
    with tracer.span("fusion.select", select_a.size):
        if fuser.source == "filtered":
            fused_f = np.where(select_a, fa, fb)
        else:
            fused_f = np.where(select_a, image.widen(a), image.widen(b))
    with tracer.span("image.quantize", fused_f.size):
        fused_u8 = _quantize(fused_f)
    return fusion.FusionResult(fused_u8=fused_u8, fused_f=fused_f, method="moment",
                               decision=select_a, moments_a=ma, moments_b=mb)


def staged_evaluate(tracer, a, b, f, constants=None):
    """`metrics.evaluate`, one span per metric, in the order evaluate calls them."""
    with tracer.span("metrics.qabf", np.size(f)):
        q, degenerate = metrics.qabf(a, b, f, constants)
    with tracer.span("metrics.entropy", np.size(f)):
        entropy_bits = metrics.entropy(f)
    with tracer.span("metrics.std_dev", np.size(f)):
        sd = metrics.std_dev(f)
    with tracer.span("metrics.mim", np.size(f)):
        mim_bits = metrics.mim(a, b, f)
    return metrics.MetricsRecord(entropy_bits=entropy_bits, sd=sd, mim_bits=mim_bits,
                                 qabf=q, degenerate_qabf=degenerate)


def _spanned(tracer, name, fn, size_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            out = fn(*args, **kwargs)
        if size_of is not None:
            record[PIXELS] = record[NBYTES] = size_of(out)
        return out
    return wrapper


def _replacements(tracer):
    """(original function, wrapper) for every function a traced op reaches."""
    def moment_fuse(self, a, b):
        with tracer.span("fusion.fuse.moment", np.size(a)):
            return staged_fuse(tracer, self, a, b)

    def evaluate(a, b, f, constants=None):
        with tracer.span("metrics.evaluate", np.size(f)):
            return staged_evaluate(tracer, a, b, f, constants)

    def method_fuse(name, fn):
        def wrapper(self, a, b):
            with tracer.span(name, np.size(a)):
                return fn(self, a, b)
        return wrapper

    size = np.size
    return [
        (fusion.MomentFuser.fuse, moment_fuse),
        (fusion.AverageFuser.fuse, method_fuse("fusion.fuse.average", fusion.AverageFuser.fuse)),
        (fusion.PcaFuser.fuse, method_fuse("fusion.fuse.pca", fusion.PcaFuser.fuse)),
        (metrics.evaluate, evaluate),
        (metrics.sobel_edges, _spanned(tracer, "metrics.sobel_edges", metrics.sobel_edges,
                                       lambda e: e.strength.size)),
        (image.quantize, _spanned(tracer, "image.quantize", image.quantize, size)),
        (validation.check_image_float, _spanned(tracer, "validation.check_image_float",
                                                validation.check_image_float, size)),
        (pgm.read_pgm, _spanned(tracer, "pgm.read_pgm", pgm.read_pgm, size)),
        (batch.discover_pairs, _spanned(tracer, "batch.discover_pairs", batch.discover_pairs)),
        (batch.run_batch, _spanned(tracer, "batch.run_batch", batch.run_batch)),
        (batch.emit_report, _spanned(tracer, "batch.emit_report", batch.emit_report, len)),
        (batch.run_pair, _spanned(tracer, "batch.run_pair", batch.run_pair)),
        (cli.main, _spanned(tracer, "cli.main", cli.main)),
        (synthetic.synthesize_pairs, _spanned(tracer, "synthetic.synthesize_pairs",
                                              synthetic.synthesize_pairs)),
    ]


@contextlib.contextmanager
def instrumented(tracer):
    """Swap every reference to a traced function, in every momentfuse module
    and fuser class, for its spanned wrapper; restore them all on exit."""
    by_id = {id(orig): wrapper for orig, wrapper in _replacements(tracer)}
    owners = [mod for name, mod in list(sys.modules.items())
              if name == "momentfuse" or name.startswith("momentfuse.")]
    owners += [fusion.MomentFuser, fusion.AverageFuser, fusion.PcaFuser]
    swapped = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            wrapper = by_id.get(id(value))
            if wrapper is not None:
                swapped.append((owner, attr, value))
                setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, value in reversed(swapped):
            setattr(owner, attr, value)


class SpanTable:
    """Finished spans indexed for the per-layer metrics."""

    def __init__(self, spans):
        self.spans = spans
        self.ns = [s[END] - s[START] for s in spans]
        self.child_ns = [0] * len(spans)
        for index, span in enumerate(spans):
            if span[PARENT] >= 0:
                self.child_ns[span[PARENT]] += self.ns[index]

    def per_op(self, ops, name, reduce):
        """Median over ops of reduce(indices of the op's spans named `name`),
        over the ops that called `name` at all; None when none did."""
        by_op = {}
        for index, span in enumerate(self.spans):
            if span[NAME] == name and span[OP] in ops:
                by_op.setdefault(span[OP], []).append(index)
        values = [reduce(indices) for indices in by_op.values()]
        return statistics.median(values) if values else None


def total_ms(name):
    return lambda t, ops: t.per_op(ops, name, lambda ix: sum(t.ns[i] for i in ix) / 1e6)


def self_ms(name):
    return lambda t, ops: t.per_op(
        ops, name, lambda ix: sum(t.ns[i] - t.child_ns[i] for i in ix) / 1e6)


def ns_per_px(name):
    return lambda t, ops: t.per_op(
        ops, name, lambda ix: sum(t.ns[i] for i in ix) / sum(t.spans[i][PIXELS] for i in ix))


def mb_per_s(name):
    return lambda t, ops: t.per_op(
        ops, name, lambda ix: sum(t.spans[i][NBYTES] for i in ix) * 1e3 / sum(t.ns[i] for i in ix))


def per_call_ms(name):
    def measure(t, ops):
        calls = [t.ns[i] / 1e6 for i, s in enumerate(t.spans) if s[OP] in ops and s[NAME] == name]
        return statistics.median(calls) if calls else None
    return measure


# Per-layer metrics from span timings: (name, unit, measure). Each `.ms` is
# milliseconds per op summed over the op's calls, as a median over traced ops;
# residuals are the parent span's time not covered by its child spans.
SPAN_METRICS = [
    ("filters.preprocess.ms", "ms", total_ms("filters.preprocess")),
    ("filters.preprocess.ns_per_px", "ns/px", ns_per_px("filters.preprocess")),
    ("fusion.local_moment_map.ms", "ms", total_ms("fusion.local_moment_map")),
    ("fusion.local_moment_map.ns_per_px", "ns/px", ns_per_px("fusion.local_moment_map")),
    ("fusion.decision_map.ms", "ms", total_ms("fusion.decision_map")),
    ("fusion.select.ms", "ms", total_ms("fusion.select")),
    ("fusion.fuse.ms.moment", "ms", total_ms("fusion.fuse.moment")),
    ("fusion.fuse.ms.average", "ms", total_ms("fusion.fuse.average")),
    ("fusion.fuse.ms.pca", "ms", total_ms("fusion.fuse.pca")),
    ("fusion.fuse.residual.ms", "ms", self_ms("fusion.fuse.moment")),
    ("image.quantize.ms", "ms", total_ms("image.quantize")),
    ("validation.check_image_float.ms", "ms", per_call_ms("validation.check_image_float")),
    ("metrics.evaluate.ms", "ms", total_ms("metrics.evaluate")),
    ("metrics.evaluate.residual.ms", "ms", self_ms("metrics.evaluate")),
    ("metrics.qabf.ms", "ms", total_ms("metrics.qabf")),
    ("metrics.sobel_edges.ms", "ms", total_ms("metrics.sobel_edges")),
    ("metrics.mim.ms", "ms", total_ms("metrics.mim")),
    ("metrics.entropy.ms", "ms", total_ms("metrics.entropy")),
    ("metrics.std_dev.ms", "ms", total_ms("metrics.std_dev")),
    ("batch.run_pair.ms", "ms", total_ms("batch.run_pair")),
    ("pgm.read_pgm.ms", "ms", total_ms("pgm.read_pgm")),
    ("pgm.read_pgm.mb_per_s", "MB/s", mb_per_s("pgm.read_pgm")),
    ("batch.discover_pairs.ms", "ms", total_ms("batch.discover_pairs")),
    ("batch.run_batch.ms", "ms", total_ms("batch.run_batch")),
    ("batch.emit_report.ms", "ms", total_ms("batch.emit_report")),
    ("cli.main.ms", "ms", total_ms("cli.main")),
    ("cli.residual.ms", "ms", self_ms("cli.main")),
    ("synthetic.synthesize_pairs.ms", "ms", per_call_ms("synthetic.synthesize_pairs")),
]
