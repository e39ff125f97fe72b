"""The benchmark's workloads: inputs made from a seed, one op, and the checks
every op's output must pass.

Inputs come from `momentfuse.synthetic`: complementary-blur pairs whose sharp
source is known at every pixel. Each workload cycles a few distinct inputs.
The first op on an input gets the full property check; every later op on it
must reproduce that verified output bit for bit (compared by SHA-256).
"""

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from momentfuse import batch, cli, filters, fusion, metrics, pgm, synthetic

import spans

SIGMA = 2.0
DEFAULT_SEED = 0
METHODS = ("average", "moment", "pca")
REPORT_HEADER = ["pair_id", "method", "mim", "sd", "entropy", "qabf", "degenerate"]

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json"),
          encoding="utf-8") as _fh:
    # SHA-256 digests of the outputs at DEFAULT_SEED and default sizes, one per
    # distinct input, recorded from the code the benchmark was defined on.
    PINNED = json.load(_fh)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).data)
    return h.hexdigest()


def fusion_digest(result) -> str:
    return digest(result.fused_u8, result.decision, result.fused_f,
                  result.moments_a, result.moments_b)


def check_fusion(a, b, result):
    """Selection property and first-source tie rule of one moment fusion with
    source='filtered'. Returns a failure message, or None."""
    decision = result.decision
    if decision is None or decision.dtype != bool or decision.shape != a.shape:
        return "decision map missing or malformed"
    if not np.array_equal(decision, result.moments_a >= result.moments_b):
        return "decision map breaks the first-source tie rule"
    winner = np.where(decision, filters.preprocess(a), filters.preprocess(b))
    if not np.array_equal(result.fused_f, winner):
        return "a fused pixel does not come from the winning source"
    quantized = np.floor(np.clip(result.fused_f, 0.0, 255.0) + 0.5).astype(np.uint8)
    if not np.array_equal(result.fused_u8, quantized):
        return "fused_u8 is not fused_f rounded to 8 bits"
    return None


def _qabf_failure(value):
    if not 0.0 <= value <= 1.0:
        return f"Q^AB/F {value!r} outside [0, 1]"
    return None


class Workload:
    """One workload. Subclasses set the class attributes and the hooks."""

    name = ""
    size = 0       # side of every square raster
    pairs = 0      # distinct synthetic pairs
    distinct = None  # distinct op inputs, cycled by op index; default: one per pair
    # Median harness.reference_ms at this side on the machine the benchmark
    # was defined on (2 vCPU x86-64 VM): scaled times read as its times.
    reference_ms = None

    def __init__(self, workdir, size=None, pairs=None):
        self.workdir = workdir
        self.size = size or type(self).size
        self.pairs = pairs or type(self).pairs
        self.distinct = type(self).distinct or self.pairs
        self.inputs = []
        self.pins = None
        self.verified = {}     # input index -> digest of its verified output
        self.decisions = {}    # input index -> [(sharp picked, first source, ties, pixels)]

    @property
    def pixels_per_op(self):
        return self.size * self.size

    def setup(self, seed):
        """Synthesize the inputs; called several times, each run replaces the last."""
        generated = synthetic.synthesize_pairs(self.pairs, SIGMA, seed,
                                               height=self.size, width=self.size)
        self.inputs = [(p.a, p.b, p.sharp_is_a) for _, p in generated]
        defaults = (self.size, self.pairs) == (type(self).size, type(self).pairs)
        self.pins = PINNED[self.name] if defaults and seed == DEFAULT_SEED else None

    def check(self, i, out):
        """None if op i's output is correct, else why not."""
        k = i % self.distinct
        fingerprint = self.output_digest(out)
        if k in self.verified:
            if fingerprint != self.verified[k]:
                return "output differs from the verified output of the same input"
            return None
        failure = self.verify(k, out)
        if failure is None and self.pins is not None and self.pin_digest(out) != self.pins[k]:
            failure = "output digest differs from the pinned seed-commit digest"
        if failure is None:
            self.verified[k] = fingerprint
        else:
            self.decisions.pop(k, None)
        return failure

    def decision_share(self, column):
        """Share of verified moment-fusion pixels counted in `column`: 0 where
        the decision picks the sharp source, 1 where it picks the first source,
        2 where the two moments tie."""
        rows = [c for per_input in self.decisions.values() for c in per_input]
        if not rows:
            return float("nan")
        counts = np.sum(rows, axis=0)
        return float(counts[column] / counts[3])

    def decision_acc(self):
        return self.decision_share(0)

    def _record_fusion(self, k, index, result):
        a, b, truth = self.inputs[index]
        failure = check_fusion(a, b, result)
        if failure is None:
            d = result.decision
            self.decisions.setdefault(k, []).append((
                np.count_nonzero(d == truth), np.count_nonzero(d),
                np.count_nonzero(result.moments_a == result.moments_b), d.size))
        return failure


class Fuse2048(Workload):
    """MomentFuser.fuse alone on 2048^2 pairs: every float64 temporary is far
    larger than L2, so filter, moment and tiling changes show here and metric
    or PGM changes do not."""

    name = "fuse_2048"
    size = 2048
    pairs = 4
    reference_ms = 36.0

    def setup(self, seed):
        super().setup(seed)
        self.first_fused = None

    def op(self, i):
        a, b, _ = self.inputs[i % self.distinct]
        return fusion.MomentFuser().fuse(a, b)

    def output_digest(self, result):
        return fusion_digest(result)

    def pin_digest(self, result):
        return digest(result.fused_u8, result.decision)

    def verify(self, k, result):
        failure = self._record_fusion(k, k, result)
        if failure is None and k == 0:
            self.first_fused = result.fused_u8
        return failure

    def qabf_mean(self):
        # Q^AB/F at 2048^2 costs more than two ops, so only the first pair is scored.
        a, b, _ = self.inputs[0]
        return metrics.qabf(a, b, self.first_fused)[0]


class Pair1024(Workload):
    """run_pair with all three methods on 1024^2 pairs: the metrics layer on
    memory-bound rasters, against batch_256 on cache-resident ones."""

    name = "pair_1024"
    size = 1024
    pairs = 4
    reference_ms = 27.0

    def setup(self, seed):
        super().setup(seed)
        self.qabf = {}

    def op(self, i):
        a, b, _ = self.inputs[i % self.distinct]
        return batch.run_pair(a, b)

    def output_digest(self, outcomes):
        parts = []
        for o in outcomes:
            parts += [o.method.encode(), repr(o.record).encode(), o.result.fused_u8, o.result.fused_f]
            if o.result.decision is not None:
                parts.append(fusion_digest(o.result).encode())
        return digest(*parts)

    def pin_digest(self, outcomes):
        return digest(repr([(o.method, o.record.as_dict()) for o in outcomes]).encode())

    def verify(self, k, outcomes):
        if [o.method for o in outcomes] != list(METHODS):
            return f"methods {[o.method for o in outcomes]} != {list(METHODS)}"
        for o in outcomes:
            failure = _qabf_failure(o.record.qabf)
            if failure:
                return failure
        moment = outcomes[METHODS.index("moment")]
        failure = self._record_fusion(k, k, moment.result)
        if failure is None:
            self.qabf[k] = moment.record.qabf
        return failure

    def qabf_mean(self):
        return float(np.mean(list(self.qabf.values())))


class Batch256(Workload):
    """The CLI batch command over 20 P5 pairs of 256^2 on disk: the only
    workload through pgm, the batch report and cli, on cache-resident arrays."""

    name = "batch_256"
    size = 256
    pairs = 20
    reference_ms = 18.0
    distinct = 1

    @property
    def pixels_per_op(self):
        return self.pairs * self.size * self.size

    def setup(self, seed):
        super().setup(seed)
        self.pair_dir = os.path.join(self.workdir, "pairs")
        self.report_path = os.path.join(self.workdir, "report.csv")
        os.makedirs(self.pair_dir, exist_ok=True)
        for index, (a, b, _) in enumerate(self.inputs):
            pgm.write_pgm(os.path.join(self.pair_dir, f"{index:03d}_a.pgm"), a)
            pgm.write_pgm(os.path.join(self.pair_dir, f"{index:03d}_b.pgm"), b)
        self.argv = ["batch", "--dir", self.pair_dir, "--methods", ",".join(METHODS),
                     "--format", "csv", "--report", self.report_path]

    def op(self, i):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        try:
            with open(self.report_path, "rb") as fh:
                report = fh.read()
            os.remove(self.report_path)
        except FileNotFoundError:
            report = b""
        return code, report

    def output_digest(self, out):
        code, report = out
        return digest(b"%d\n" % code, report)

    def pin_digest(self, out):
        return digest(out[1])

    def verify(self, k, out):
        code, report = out
        if code != 0:
            return f"batch exited with code {code}"
        rows = list(csv.reader(io.StringIO(report.decode("ascii"))))
        expected = [(f"{i:03d}", m) for i in range(self.pairs) for m in METHODS]
        expected += [(batch.AGGREGATE_ID, m) for m in METHODS]
        if rows[0] != REPORT_HEADER or [tuple(r[:2]) for r in rows[1:]] != expected:
            return "report rows differ from the expected pair x method layout"
        for row in rows[1:]:
            failure = _qabf_failure(float(row[5]))
            if failure:
                return failure
        self.qabf = [float(r[5]) for r in rows[1:1 + 3 * self.pairs] if r[1] == "moment"]
        # The report the CLI wrote from the PGM files must equal, byte for
        # byte, the report of the same pairs run from the in-memory inputs.
        # The moment fusions of that in-memory run get the fusion checks, and
        # the staged fuse of traced runs is compared with them pair by pair.
        batch_rows = []
        for index, (a, b, _) in enumerate(self.inputs):
            pair_id = f"{index:03d}"
            for o in batch.run_pair(a, b, METHODS):
                batch_rows.append(batch.BatchRow(pair_id, o.method, o.record))
                if o.method != "moment":
                    continue
                failure = self._record_fusion(k, index, o.result)
                if failure is None and (fusion_digest(spans.staged_fuse(
                        spans.Tracer(), fusion.MomentFuser(), a, b)) != fusion_digest(o.result)):
                    failure = "staged fuse is not bit-identical to MomentFuser.fuse"
                if failure:
                    return f"pair {pair_id}: {failure}"
        expected = batch.emit_report(
            batch.BatchReport(batch_rows, batch._aggregate(batch_rows)), "csv")
        if report != expected:
            return "report differs from the report of the in-memory inputs"
        return None

    def qabf_mean(self):
        return float(np.mean(self.qabf))


WORKLOADS = {w.name: w for w in (Fuse2048, Batch256, Pair1024)}
