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

from .fusion import FUSION_METHODS, FusionResult, make_fuser
from .metrics import MetricsRecord, QabfConstants, _shared_source_terms, evaluate
from .pgm import PgmError, read_pgm
from .validation import ShapeMismatchError, check_same_shape

METRIC_COLUMNS = ("mim", "sd", "entropy", "qabf")
AGGREGATE_ID = "(mean)"


class EmptyBatchError(RuntimeError):
    """Raised when a batch run has no pairs to evaluate."""


@dataclass
class PairSpec:
    """One registered pair on disk."""

    pair_id: str
    path_a: str
    path_b: str


@dataclass
class PairOutcome:
    """Fusion plus evaluation of one pair with one method."""

    method: str
    result: FusionResult
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
        if stem.endswith("_a") or stem.endswith("_b"):
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
    against the manifest's directory.
    """
    root = os.path.dirname(os.path.abspath(path))
    pairs = []
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
            pairs.append(PairSpec(
                pair_id,
                os.path.join(root, path_a),
                os.path.join(root, path_b),
            ))
    return pairs


def run_pair(a: np.ndarray, b: np.ndarray, methods=FUSION_METHODS,
             constants: Optional[QabfConstants] = None, **fuser_params) -> list[PairOutcome]:
    """Fuse one loaded pair with each requested method and evaluate it.

    Methods run in sorted order; unknown method names raise ValueError.
    Extra keyword arguments are forwarded to the fusers that accept them.
    The sources' Sobel maps and edge weights are computed once and shared by
    every method's evaluation.
    """
    outcomes = []
    with _shared_source_terms():
        for method in sorted(set(methods)):
            fuser = make_fuser(method, **fuser_params)
            result = fuser.fuse(a, b)
            record = evaluate(a, b, result.fused_u8, constants)
            outcomes.append(PairOutcome(method=method, result=result, record=record))
    return outcomes


def run_batch(pairs: list[PairSpec], methods=FUSION_METHODS,
              constants: Optional[QabfConstants] = None, **fuser_params) -> BatchReport:
    """Run every (pair, method) combination and aggregate per-method means.

    Pairs whose files fail to decode or whose dimensions disagree are
    reported under `skipped` with the error message; a pair whose fusion or
    evaluation raises is reported there as "<Type>: <message>" and leaves no
    row. KeyboardInterrupt still stops the run. Raises EmptyBatchError when
    no pair at all produces a result. An unknown method or a bad fuser
    parameter would fail every pair alike, so it raises ValueError before
    any pair is read.
    """
    for method in sorted(set(methods)):
        make_fuser(method, **fuser_params)._check_params()
    rows = []
    skipped = []
    for spec in pairs:
        try:
            a = read_pgm(spec.path_a)
            b = read_pgm(spec.path_b)
            check_same_shape(a, b, spec.path_a, spec.path_b)
        except (OSError, PgmError, ShapeMismatchError) as exc:
            skipped.append((spec.pair_id, str(exc)))
            continue
        pair_rows = []
        try:
            for outcome in run_pair(a, b, methods, constants, **fuser_params):
                pair_rows.append(BatchRow(spec.pair_id, outcome.method, outcome.record))
        except Exception as exc:  # a failing fuser or metric loses only its pair
            skipped.append((spec.pair_id, f"{type(exc).__name__}: {exc}"))
            continue
        rows.extend(pair_rows)
    if not rows:
        raise EmptyBatchError("batch produced no results: empty or fully skipped pair set")
    rows.sort(key=lambda row: (row.pair_id, row.method))
    return BatchReport(rows=rows, aggregates=_aggregate(rows), skipped=skipped)


def _aggregate(rows: list[BatchRow]) -> dict[str, dict]:
    by_method: dict[str, list[BatchRow]] = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)
    aggregates = {}
    for method in sorted(by_method):
        group = by_method[method]
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
    writer.writerow(["pair_id", "method", *METRIC_COLUMNS, "degenerate"])
    for row in report.rows:
        record = row.record.as_dict()
        cells = [row.pair_id, row.method]
        cells.extend(_format_value(record[column]) for column in METRIC_COLUMNS)
        cells.append(_format_value(record["degenerate"]))
        writer.writerow(cells)
    for method in sorted(report.aggregates):
        agg = report.aggregates[method]
        cells = [AGGREGATE_ID, method]
        cells.extend(_format_value(agg[column]) for column in METRIC_COLUMNS)
        cells.append(str(agg["degenerate"]))
        writer.writerow(cells)
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
