"""Batch experiment harness: pair discovery, fusion runs, and report emission.

A batch run fuses every registered pair with each requested method, evaluates
the full metric suite on each fused result, and aggregates per-method means.
Pairs that fail to load, fuse or evaluate are recorded and skipped rather
than aborting the run; reports are deterministic byte-for-byte given equal
inputs.
"""

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fusion import FUSION_METHODS, FusionResult, _pooled, make_fuser
from .metrics import (MetricsRecord, QabfConstants, _check_constants, _shared_source_terms,
                      evaluate)
from .pgm import PgmError, read_pgm
from .validation import ShapeMismatchError, check_pair, check_same_shape

METRIC_COLUMNS = ("mim", "sd", "entropy", "qabf")
AGGREGATE_ID = "(mean)"


class EmptyBatchError(RuntimeError):
    """Raised when a batch run has no pairs to evaluate; `skipped` holds the
    (pair id, reason) of every pair it skipped, in pair order."""

    def __init__(self, message: str, skipped=()):
        super().__init__(message)
        self.skipped = list(skipped)


@dataclass
class PairSpec:
    """One registered pair on disk."""

    pair_id: str
    path_a: str
    path_b: str


@dataclass
class PairOutcome:
    """Fusion plus evaluation of one pair with one method; `result` is None
    when `run_pair` was asked not to keep results."""

    method: str
    result: Optional[FusionResult]
    record: MetricsRecord


@dataclass
class BatchRow:
    pair_id: str
    method: str
    record: MetricsRecord


@dataclass
class BatchReport:
    """Rows sorted by (pair id, method), per-method metric means, and the
    pairs that had to be skipped (with reasons)."""

    rows: list[BatchRow]
    aggregates: dict[str, dict]
    skipped: list[tuple[str, str]] = field(default_factory=list)


def discover_pairs(directory) -> tuple[list[PairSpec], list[str]]:
    """Find `<id>_a.pgm` / `<id>_b.pgm` pairs in a directory.

    Returns (pairs sorted by id, orphan .pgm filenames lacking a mate).
    """
    sides: dict[str, dict[str, str]] = {}
    ignored = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".pgm"):
            continue
        stem = name[:-4]
        if len(stem) > 2 and stem[-2:] in ("_a", "_b"):  # `_a.pgm` has no id
            sides.setdefault(stem[:-2], {})[stem[-1]] = os.path.join(directory, name)
        else:
            ignored.append(name)
    pairs = []
    orphans = list(ignored)
    for pair_id in sorted(sides):
        found = sides[pair_id]
        if "a" in found and "b" in found:
            pairs.append(PairSpec(pair_id, found["a"], found["b"]))
        else:
            orphans.extend(os.path.basename(path) for path in found.values())
    return pairs, sorted(orphans)


def read_manifest(path) -> list[PairSpec]:
    """Parse a manifest of `<id> <path_a> <path_b>` lines.

    Blank lines and `#` comments are allowed; relative paths are resolved
    against the manifest's directory. A repeated id raises ValueError, since
    its report rows could not be told apart.
    """
    root = os.path.dirname(os.path.abspath(path))
    pairs = []
    first_lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected '<id> <path_a> <path_b>', got {line!r}"
                )
            pair_id, path_a, path_b = parts
            if pair_id in first_lines:
                raise ValueError(f"{path}:{lineno}: pair id {pair_id!r} already appears "
                                 f"on line {first_lines[pair_id]}")
            first_lines[pair_id] = lineno
            pairs.append(PairSpec(
                pair_id,
                os.path.join(root, path_a),
                os.path.join(root, path_b),
            ))
    return pairs


def _method_names(methods) -> list[str]:
    """The distinct requested method names, sorted; at least one."""
    if isinstance(methods, str):  # its letters would be taken for names
        raise ValueError(f"methods must be a collection of method names, got {methods!r}")
    names = sorted(set(methods))
    if not names:  # a batch would read every pair and then report none
        raise ValueError("methods must name at least one fusion method")
    return names


def run_pair(a: np.ndarray, b: np.ndarray, methods=FUSION_METHODS,
             constants: Optional[QabfConstants] = None, *, keep_results: bool = True,
             **fuser_params) -> list[PairOutcome]:
    """Fuse one loaded pair with each requested method and evaluate it.

    Methods run in sorted order; unknown method names, an empty collection
    of them or a bare string in its place raise ValueError, and so does a
    `constants` that is neither None nor a QabfConstants, before any fuse.
    Extra keyword arguments are forwarded to the fusers that accept them.
    The pair is checked once, and every fuser and evaluation gets the
    checked arrays. Every method is fused before any is scored, so the
    sources' Sobel maps and edge weights, computed once and shared by every
    method's evaluation, never coexist with a fuser's temporaries. With
    keep_results=False only each method's `fused_u8` is kept past its fuse,
    and every outcome's `result` is None.
    """
    a, b = check_pair(a, b)
    constants = _check_constants(constants)

    def fuse(method):
        result = make_fuser(method, **fuser_params).fuse(a, b)
        return method, result.fused_u8, result if keep_results else None

    fused = [fuse(method) for method in _method_names(methods)]
    with _shared_source_terms(a, b):
        return [PairOutcome(method=method, result=result,
                            record=evaluate(a, b, fused_u8, constants))
                for method, fused_u8, result in fused]


def run_batch(pairs: list[PairSpec], methods=FUSION_METHODS,
              constants: Optional[QabfConstants] = None, **fuser_params) -> BatchReport:
    """Run every (pair, method) combination and aggregate per-method means.

    Pairs whose files fail to decode or whose dimensions disagree are
    reported under `skipped` with the error message; a pair whose fusion or
    evaluation raises is reported there as "<Type>: <message>" and leaves no
    row. KeyboardInterrupt still stops the run. Raises EmptyBatchError,
    carrying the skipped list, when no pair at all produces a result. An
    unknown method, an empty `methods`, a bare string for it, a bad fuser
    parameter or a `constants` that is not a QabfConstants would fail every
    pair alike, so it raises ValueError before any pair is read.

    Each pair is decoded and scored by `run_pair` without its results, on
    the calling thread and one helper per further CPU (inline on one CPU),
    so at most one decoded pair per CPU is in flight; while pairs share the
    pool, each pair's strips run inline on its own thread. Outcomes are
    taken in pair order, so the rows, the skipped list and both report
    formats are the same bytes on any number of CPUs.
    """
    _check_constants(constants)
    for method in _method_names(methods):
        make_fuser(method, **fuser_params)._check_params()

    def score(spec):
        """The pair's outcomes, or the reason it is skipped."""
        try:
            a = read_pgm(spec.path_a)
            b = read_pgm(spec.path_b)
            check_same_shape(a, b, spec.path_a, spec.path_b)
        except (OSError, PgmError, ShapeMismatchError) as exc:
            return str(exc)
        try:
            return run_pair(a, b, methods, constants, keep_results=False, **fuser_params)
        except Exception as exc:  # a failing fuser or metric loses only its pair
            return f"{type(exc).__name__}: {exc}"

    rows = []
    skipped = []
    for spec, outcomes in zip(pairs, _pooled(score, pairs)):
        if isinstance(outcomes, str):
            skipped.append((spec.pair_id, outcomes))
        else:
            rows.extend(BatchRow(spec.pair_id, o.method, o.record) for o in outcomes)
    if not rows:
        raise EmptyBatchError("batch produced no results: empty or fully skipped pair set",
                              skipped)
    rows.sort(key=lambda row: (row.pair_id, row.method))
    return BatchReport(rows=rows, aggregates=_aggregate(rows), skipped=skipped)


def _aggregate(rows: list[BatchRow]) -> dict[str, dict]:
    aggregates = {}
    for method in sorted({row.method for row in rows}):
        group = [row for row in rows if row.method == method]
        values = {
            column: float(np.mean([row.record.as_dict()[column] for row in group]))
            for column in METRIC_COLUMNS
        }
        values["pairs"] = len(group)
        values["degenerate"] = sum(row.record.degenerate_qabf for row in group)
        aggregates[method] = values
    return aggregates


def emit_report(report: BatchReport, fmt: str = "csv") -> bytes:
    """Serialize a report as CSV or JSON.

    Floats are written with repr, so both formats carry the same numbers,
    every value survives a parse round-trip exactly, and equal inputs yield
    byte-identical reports.
    """
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "json":
        return _emit_json(report)
    raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(report: BatchReport) -> bytes:
    # The writer quotes a pair id holding a comma, quote or newline.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = (*METRIC_COLUMNS, "degenerate")
    writer.writerow(["pair_id", "method", *columns])
    lines = [(row.pair_id, row.method, row.record.as_dict()) for row in report.rows]
    lines += [(AGGREGATE_ID, m, report.aggregates[m]) for m in sorted(report.aggregates)]
    for pair_id, method, values in lines:
        writer.writerow([pair_id, method, *(_format_value(values[c]) for c in columns)])
    return buf.getvalue().encode("utf-8")


def _emit_json(report: BatchReport) -> bytes:
    payload = {
        "rows": [
            {"pair_id": row.pair_id, "method": row.method, **row.record.as_dict()}
            for row in report.rows
        ],
        "aggregates": report.aggregates,
        "skipped": [{"pair_id": pid, "reason": reason} for pid, reason in report.skipped],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")
